package bls

// Property and differential tests for the endomorphism scalar-mul layer:
// wNAF recoding round-trips, GLV/ψ decompositions recombine to k·P against
// the retained naive double-and-add oracle (mulRaw), and the endomorphisms
// act as their claimed eigenvalues on the order-r subgroups.

import (
	"crypto/rand"
	"math/big"
	"testing"
)

// edgeScalars are the scalar-mult corner cases every path must agree on.
func edgeScalars() []*big.Int {
	z2 := new(big.Int).SetUint64(blsX)
	z2.Mul(z2, z2)
	return []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		big.NewInt(2),
		big.NewInt(3),
		new(big.Int).SetUint64(blsX),
		z2,
		new(big.Int).Sub(z2, big.NewInt(1)), // λ
		new(big.Int).Sub(rOrder, big.NewInt(1)),
		new(big.Int).Sub(rOrder, new(big.Int).SetUint64(blsX)),
		new(big.Int).Rsh(rOrder, 1),
	}
}

func randScalar(t testing.TB) *big.Int {
	k, err := rand.Int(rand.Reader, rOrder)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestWnafRoundTrip(t *testing.T) {
	for _, w := range []uint{2, 4, 5, 7} {
		for i := 0; i < 64; i++ {
			k := randScalar(t)
			if i%2 == 1 {
				k.Neg(k)
			}
			digits := wnafBig(k, w)
			// Reconstruct Σ dᵢ2ⁱ.
			got := new(big.Int)
			for i := len(digits) - 1; i >= 0; i-- {
				got.Lsh(got, 1)
				got.Add(got, big.NewInt(int64(digits[i])))
			}
			if got.Cmp(k) != 0 {
				t.Fatalf("w=%d: wNAF reconstructed %v, want %v", w, got, k)
			}
			half := int8(1) << (w - 1)
			for _, d := range digits {
				if d == 0 {
					continue
				}
				if d%2 == 0 || d >= half || d <= -half {
					t.Fatalf("w=%d: digit %d out of odd window", w, d)
				}
			}
		}
	}
}

func TestGLVSplitRecombines(t *testing.T) {
	glvInit()
	bound := new(big.Int).Lsh(big.NewInt(1), 129)
	ks := append(edgeScalars(), nil)
	for i := 0; i < 64; i++ {
		ks = append(ks, randScalar(t))
	}
	for _, k := range ks {
		if k == nil {
			continue
		}
		k1, k2 := glvSplit(k)
		if new(big.Int).Abs(k1).Cmp(bound) > 0 || new(big.Int).Abs(k2).Cmp(bound) > 0 {
			t.Fatalf("GLV halves too large: |k1|=%d bits |k2|=%d bits", k1.BitLen(), k2.BitLen())
		}
		got := new(big.Int).Mul(k2, glvLambda)
		got.Add(got, k1)
		got.Mod(got, rOrder)
		if got.Cmp(new(big.Int).Mod(k, rOrder)) != 0 {
			t.Fatalf("k1 + k2·λ = %v, want %v", got, k)
		}
	}
}

func TestPsiSplitRecombines(t *testing.T) {
	psiSplitInit()
	bound := new(big.Int).Lsh(big.NewInt(1), 66)
	for i := 0; i < 64; i++ {
		k := randScalar(t)
		if i < len(edgeScalars()) {
			k = edgeScalars()[i]
		}
		parts := psiSplit(k)
		got := new(big.Int)
		zpow := big.NewInt(1)
		for _, a := range parts {
			if new(big.Int).Abs(a).Cmp(bound) > 0 {
				t.Fatalf("ψ quarter-scalar too large: %d bits", a.BitLen())
			}
			got.Add(got, new(big.Int).Mul(a, zpow))
			zpow = new(big.Int).Mul(zpow, psiZ)
		}
		got.Mod(got, rOrder)
		if got.Cmp(new(big.Int).Mod(k, rOrder)) != 0 {
			t.Fatalf("Σ aᵢzⁱ = %v, want %v", got, k)
		}
	}
}

func TestG1PhiEigenvalue(t *testing.T) {
	glvInit()
	for i := 0; i < 8; i++ {
		p := G1Generator().Mul(randScalar(t))
		if !g1Phi(p).Equal(p.mulRaw(glvLambda)) {
			t.Fatal("φ(P) != [λ]P on G1")
		}
	}
}

func TestG2PsiEigenvalue(t *testing.T) {
	// ψ acts as multiplication by z ≡ p (mod r) on G2.
	zModR := new(big.Int).Mod(new(big.Int).Neg(new(big.Int).SetUint64(blsX)), rOrder)
	for i := 0; i < 8; i++ {
		p := G2Generator().Mul(randScalar(t))
		if !g2Psi(p).Equal(p.mulRaw(zModR)) {
			t.Fatal("ψ(P) != [z]P on G2")
		}
		if !g2Psi(p).OnCurve() {
			t.Fatal("ψ(P) left the twist")
		}
	}
}

func TestG1MulGLVMatchesNaive(t *testing.T) {
	g := G1Generator()
	p := g.mulRaw(big.NewInt(98765)) // a non-generator base
	for _, k := range edgeScalars() {
		if !p.mulGLV(new(big.Int).Mod(k, rOrder)).Equal(p.mulRaw(new(big.Int).Mod(k, rOrder))) {
			t.Fatalf("GLV mismatch at edge scalar %v", k)
		}
	}
	for i := 0; i < 48; i++ {
		k := randScalar(t)
		if !p.mulGLV(k).Equal(p.mulRaw(k)) {
			t.Fatalf("GLV mismatch at random scalar %v", k)
		}
	}
	if !g1Infinity().mulGLV(big.NewInt(7)).IsInfinity() {
		t.Fatal("GLV of infinity not infinity")
	}
}

func TestG2MulPsiMatchesNaive(t *testing.T) {
	p := G2Generator().mulRaw(big.NewInt(43210))
	for _, k := range edgeScalars() {
		if !p.mulPsi(new(big.Int).Mod(k, rOrder)).Equal(p.mulRaw(new(big.Int).Mod(k, rOrder))) {
			t.Fatalf("ψ-mul mismatch at edge scalar %v", k)
		}
	}
	for i := 0; i < 48; i++ {
		k := randScalar(t)
		if !p.mulPsi(k).Equal(p.mulRaw(k)) {
			t.Fatalf("ψ-mul mismatch at random scalar %v", k)
		}
	}
	if !g2Infinity().mulPsi(big.NewInt(7)).IsInfinity() {
		t.Fatal("ψ-mul of infinity not infinity")
	}
}

func TestMulZAbsMatchesNaive(t *testing.T) {
	z := new(big.Int).SetUint64(blsX)
	p1 := G1Generator().Mul(randScalar(t))
	if !p1.mulZAbs().Equal(p1.mulRaw(z)) {
		t.Fatal("G1 [|z|] NAF multiplication wrong")
	}
	p2 := G2Generator().Mul(randScalar(t))
	if !p2.mulZAbs().Equal(p2.mulRaw(z)) {
		t.Fatal("G2 [|z|] NAF multiplication wrong")
	}
}

func TestG1AddMixedMatchesAdd(t *testing.T) {
	p := G1Generator().Mul(randScalar(t))
	q := G1Generator().Mul(randScalar(t))
	qx, qy, _ := q.affine()
	if !p.addMixed(&qx, &qy).Equal(p.Add(q)) {
		t.Fatal("G1 mixed add mismatch")
	}
	// Edge cases: acc at infinity, doubling, inverse pair.
	if !g1Infinity().addMixed(&qx, &qy).Equal(q) {
		t.Fatal("∞ + q mismatch")
	}
	if !q.addMixed(&qx, &qy).Equal(q.double()) {
		t.Fatal("mixed doubling mismatch")
	}
	nq := q.Neg()
	if !nq.addMixed(&qx, &qy).IsInfinity() {
		t.Fatal("q + (−q) not infinity")
	}
}

func TestG2AddMixedMatchesAdd(t *testing.T) {
	p := G2Generator().Mul(randScalar(t))
	q := G2Generator().Mul(randScalar(t))
	qx, qy, _ := q.affine()
	if !p.addMixed(&qx, &qy).Equal(p.Add(q)) {
		t.Fatal("G2 mixed add mismatch")
	}
	if !g2Infinity().addMixed(&qx, &qy).Equal(q) {
		t.Fatal("∞ + q mismatch")
	}
	if !q.addMixed(&qx, &qy).Equal(q.double()) {
		t.Fatal("mixed doubling mismatch")
	}
	nq := q.Neg()
	if !nq.addMixed(&qx, &qy).IsInfinity() {
		t.Fatal("q + (−q) not infinity")
	}
}

func BenchmarkG1MulGLV(b *testing.B) {
	p := G1Generator().Mul(randScalar(b))
	k := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.mulGLV(k)
	}
}

func BenchmarkG1MulNaive(b *testing.B) {
	p := G1Generator().Mul(randScalar(b))
	k := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.mulRaw(k)
	}
}

func BenchmarkG2MulPsi(b *testing.B) {
	p := G2Generator().Mul(randScalar(b))
	k := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.mulPsi(k)
	}
}

func BenchmarkG2MulNaive(b *testing.B) {
	p := G2Generator().Mul(randScalar(b))
	k := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.mulRaw(k)
	}
}

func (p G2) mulRaw(k *big.Int) G2 {
	out := g2Infinity()
	for i := k.BitLen() - 1; i >= 0; i-- {
		out = out.double()
		if k.Bit(i) == 1 {
			out = out.Add(p)
		}
	}
	return out
}
