package bls

// Differential tests for the endomorphism-based subgroup membership checks
// against the retained full r-multiplication oracle, across the three
// input classes the checks must separate: genuine subgroup points, points
// on the curve (torsion-carrying) but outside the order-r subgroup, and
// invalid encodings.

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// inSubgroupNaive is the full-r-multiplication membership test, the
// differential oracle for inSubgroupEndo.
func (p G1) inSubgroupNaive() bool {
	return p.OnCurve() && p.mulRaw(rOrder).IsInfinity()
}

// inSubgroupNaive is the full-r-multiplication membership test, the
// differential oracle for inSubgroupPsi.
func (p G2) inSubgroupNaive() bool {
	return p.OnCurve() && p.mulRaw(rOrder).IsInfinity()
}

// offSubgroupG1 finds a curve point outside the order-r subgroup by
// try-and-increment over x without cofactor clearing (the overwhelming
// majority of curve points carry h-torsion).
func offSubgroupG1(t *testing.T) G1 {
	x := new(big.Int).Set(big.NewInt(7))
	for i := 0; i < 1000; i++ {
		rhs := fpAdd(fpMul(fpMul(x, x), x), big4)
		y := new(big.Int).Exp(rhs, sqrtExp, pMod)
		if fpMul(y, y).Cmp(rhs) == 0 {
			var fx, fy fe
			feFromBig(&fx, x)
			feFromBig(&fy, y)
			p := g1FromAffine(fx, fy)
			if p.OnCurve() && !p.inSubgroupNaive() {
				return p
			}
		}
		x.Add(x, big.NewInt(1))
	}
	t.Fatal("no off-subgroup G1 point found")
	return G1{}
}

// offSubgroupG2 finds a twist point outside the order-r subgroup: a random
// x whose curve equation has a root lands in E'(Fp2), whose cofactor is
// ~2^381, so the point is off-subgroup with overwhelming probability.
func offSubgroupG2(t *testing.T) G2 {
	for i := 0; i < 1000; i++ {
		x := randFe2(t)
		var rhs, y fe2
		rhs.square(&x)
		rhs.mul(&rhs, &x)
		rhs.add(&rhs, &fe2B)
		if !fe2Sqrt(&y, &rhs) {
			continue
		}
		p := g2FromAffine(x, y)
		if p.OnCurve() && !p.inSubgroupNaive() {
			return p
		}
	}
	t.Fatal("no off-subgroup G2 point found")
	return G2{}
}

func TestG1SubgroupEndoMatchesNaive(t *testing.T) {
	// Genuine subgroup points, including the identity and the generator.
	cases := []G1{g1Infinity(), G1Generator()}
	for i := 0; i < 16; i++ {
		cases = append(cases, G1Generator().Mul(randScalar(t)))
	}
	for i, p := range cases {
		if !p.inSubgroupEndo() || !p.inSubgroupNaive() {
			t.Fatalf("case %d: subgroup point rejected (endo=%v naive=%v)",
				i, p.inSubgroupEndo(), p.inSubgroupNaive())
		}
	}
	// Torsion-carrying curve points must be rejected by both. Walk a few
	// multiples: every multiple of an off-subgroup point that is not in
	// the subgroup must keep failing, and both checks must keep agreeing.
	q := offSubgroupG1(t)
	for i := 1; i < 8; i++ {
		m := q.mulRaw(big.NewInt(int64(i)))
		endo, naive := m.inSubgroupEndo(), m.inSubgroupNaive()
		if endo != naive {
			t.Fatalf("×%d: endo=%v naive=%v disagree", i, endo, naive)
		}
	}
	if q.inSubgroupEndo() {
		t.Fatal("off-subgroup G1 point passed the endomorphism check")
	}
}

func TestG2SubgroupPsiMatchesNaive(t *testing.T) {
	cases := []G2{g2Infinity(), G2Generator()}
	for i := 0; i < 16; i++ {
		cases = append(cases, G2Generator().Mul(randScalar(t)))
	}
	for i, p := range cases {
		if !p.inSubgroupPsi() || !p.inSubgroupNaive() {
			t.Fatalf("case %d: subgroup point rejected (psi=%v naive=%v)",
				i, p.inSubgroupPsi(), p.inSubgroupNaive())
		}
	}
	q := offSubgroupG2(t)
	for i := 1; i < 8; i++ {
		m := q.mulRaw(big.NewInt(int64(i)))
		psi, naive := m.inSubgroupPsi(), m.inSubgroupNaive()
		if psi != naive {
			t.Fatalf("×%d: psi=%v naive=%v disagree", i, psi, naive)
		}
	}
	if q.inSubgroupPsi() {
		t.Fatal("off-subgroup G2 point passed the ψ check")
	}
}

// TestFromBytesSubgroupFuzz mutates valid encodings and checks that the
// parsers (now running the endomorphism checks) accept exactly the inputs
// the naive oracle accepts.
func TestFromBytesSubgroupFuzz(t *testing.T) {
	g1 := G1Generator().Mul(randScalar(t)).Bytes()
	g2 := G2Generator().Mul(randScalar(t)).Bytes()
	buf := make([]byte, len(g2))
	for i := 0; i < 64; i++ {
		// G1: flip a random byte of a valid encoding.
		copy(buf[:len(g1)], g1)
		idx := 1 + i%(len(g1)-1)
		buf[idx] ^= byte(1 << (i % 8))
		p, err := G1FromBytes(buf[:len(g1)])
		if err == nil && !p.inSubgroupNaive() {
			t.Fatal("G1FromBytes accepted a point the naive check rejects")
		}
		// G2 likewise.
		copy(buf, g2)
		idx = 1 + i%(len(g2)-1)
		buf[idx] ^= byte(1 << (i % 8))
		q, err := G2FromBytes(buf)
		if err == nil && !q.inSubgroupNaive() {
			t.Fatal("G2FromBytes accepted a point the naive check rejects")
		}
	}
	// Off-subgroup points serialized through Bytes must be rejected by
	// the parsers outright.
	if _, err := G1FromBytes(offSubgroupG1(t).Bytes()); err == nil {
		t.Fatal("G1FromBytes accepted an off-subgroup encoding")
	}
	if _, err := G2FromBytes(offSubgroupG2(t).Bytes()); err == nil {
		t.Fatal("G2FromBytes accepted an off-subgroup encoding")
	}
	if _, err := G2FromCompressedBytes(offSubgroupG2(t).BytesCompressed()); err == nil {
		t.Fatal("G2FromCompressedBytes accepted an off-subgroup encoding")
	}
	// Invalid encodings stay invalid.
	bad := make([]byte, G2Size)
	bad[0] = 0x07
	if _, err := G2FromBytes(bad); err == nil {
		t.Fatal("bad tag accepted")
	}
	over := G2Generator().Bytes()
	copy(over[1:], pMod.FillBytes(make([]byte, fpSize))) // coordinate = p
	if _, err := G2FromBytes(over); err == nil {
		t.Fatal("out-of-range coordinate accepted")
	}
}

func randG2Bytes(b *testing.B) []byte {
	k, err := rand.Int(rand.Reader, rOrder)
	if err != nil {
		b.Fatal(err)
	}
	return G2Generator().Mul(k).Bytes()
}

func BenchmarkG1FromBytes(b *testing.B) {
	enc := G1Generator().Mul(randScalar(b)).Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := G1FromBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG2FromBytes(b *testing.B) {
	enc := randG2Bytes(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := G2FromBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkG2FromCompressedBytes(b *testing.B) {
	k, _ := rand.Int(rand.Reader, rOrder)
	enc := G2Generator().Mul(k).BytesCompressed()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := G2FromCompressedBytes(enc); err != nil {
			b.Fatal(err)
		}
	}
}

// The two membership checks in isolation: the "subgroup check ≥ 3×"
// acceptance numbers come from this pair (and its G1 sibling).
func BenchmarkG2SubgroupEndo(b *testing.B) {
	p := G2Generator().Mul(randScalar(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.inSubgroupPsi() {
			b.Fatal("rejected")
		}
	}
}

func BenchmarkG2SubgroupNaive(b *testing.B) {
	p := G2Generator().Mul(randScalar(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.inSubgroupNaive() {
			b.Fatal("rejected")
		}
	}
}

func BenchmarkG1SubgroupEndo(b *testing.B) {
	p := G1Generator().Mul(randScalar(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.inSubgroupEndo() {
			b.Fatal("rejected")
		}
	}
}

func BenchmarkG1SubgroupNaive(b *testing.B) {
	p := G1Generator().Mul(randScalar(b))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !p.inSubgroupNaive() {
			b.Fatal("rejected")
		}
	}
}
