package bls

// Differential tests for the multi-point layer: batch inversion and
// normalization against their one-at-a-time equivalents, the batch-affine
// summation trees against chained Add across the required size ladder
// (including repeated points, negations, and infinities).

import (
	"bytes"
	"math/big"
	"testing"
)

func TestFeBatchInv(t *testing.T) {
	vals := make([]fe, 17)
	want := make([]fe, len(vals))
	for i := range vals {
		if i%5 == 3 {
			continue // leave a few zeros in the batch
		}
		feFromBig(&vals[i], randFeBig(t))
	}
	for i := range vals {
		feInv(&want[i], &vals[i])
	}
	feBatchInv(vals)
	for i := range vals {
		if !vals[i].equal(&want[i]) {
			t.Fatalf("batch inverse %d mismatch", i)
		}
	}
}

func TestFe2BatchInv(t *testing.T) {
	vals := make([]fe2, 17)
	want := make([]fe2, len(vals))
	for i := range vals {
		if i%5 == 3 {
			continue
		}
		vals[i] = randFe2(t)
	}
	for i := range vals {
		want[i].inv(&vals[i])
	}
	fe2BatchInv(vals)
	for i := range vals {
		if !vals[i].equal(&want[i]) {
			t.Fatalf("batch inverse %d mismatch", i)
		}
	}
}

func TestNormalizeBatch(t *testing.T) {
	g1s := make([]G1, 9)
	g2s := make([]G2, 9)
	for i := range g1s {
		if i == 4 {
			continue // an infinity mid-batch
		}
		k := randScalar(t)
		g1s[i] = G1Generator().Mul(k)
		g2s[i] = G2Generator().Mul(k)
	}
	want1 := make([][]byte, len(g1s))
	want2 := make([][]byte, len(g2s))
	for i := range g1s {
		want1[i] = g1s[i].Bytes()
		want2[i] = g2s[i].Bytes()
	}
	g1NormalizeBatch(g1s)
	g2NormalizeBatch(g2s)
	for i := range g1s {
		if !g1s[i].IsInfinity() && !g1s[i].z.equal(&feR) {
			t.Fatalf("G1 %d not normalized", i)
		}
		if !g2s[i].IsInfinity() && !g2s[i].z.isOne() {
			t.Fatalf("G2 %d not normalized", i)
		}
		if !bytes.Equal(g1s[i].Bytes(), want1[i]) || !bytes.Equal(g2s[i].Bytes(), want2[i]) {
			t.Fatalf("normalization changed point %d", i)
		}
	}
}

// sumSizes is the required differential ladder.
var sumSizes = []int{0, 1, 2, 17, 256, 1024}

func TestG2SumMatchesNaive(t *testing.T) {
	for _, n := range sumSizes {
		ps := make([]G2, n)
		acc := g2Infinity()
		base := G2Generator()
		for i := range ps {
			switch {
			case i%7 == 3:
				ps[i] = g2Infinity()
			case i%7 == 5 && i > 0:
				ps[i] = ps[i-1] // repeated point → doubling inside the tree
			case i%7 == 6 && i > 0:
				ps[i] = ps[i-1].Neg() // cancellation inside the tree
			default:
				ps[i] = base.Mul(big.NewInt(int64(i*i + 1)))
			}
			acc = acc.Add(ps[i])
		}
		if got := g2Sum(ps); !got.Equal(acc) {
			t.Fatalf("n=%d: batch-affine G2 sum mismatch", n)
		}
	}
}

func TestG1SumMatchesNaive(t *testing.T) {
	for _, n := range sumSizes {
		ps := make([]G1, n)
		acc := g1Infinity()
		base := G1Generator()
		for i := range ps {
			switch {
			case i%7 == 3:
				ps[i] = g1Infinity()
			case i%7 == 5 && i > 0:
				ps[i] = ps[i-1]
			case i%7 == 6 && i > 0:
				ps[i] = ps[i-1].Neg()
			default:
				ps[i] = base.Mul(big.NewInt(int64(i*i + 1)))
			}
			acc = acc.Add(ps[i])
		}
		if got := g1Sum(ps); !got.Equal(acc) {
			t.Fatalf("n=%d: batch-affine G1 sum mismatch", n)
		}
	}
}

// aggregatePublicKeysNaive is the point-by-point summation, the
// differential oracle (and benchmark baseline) for the batch-affine path.
func aggregatePublicKeysNaive(pks []*PublicKey) *PublicKey {
	acc := g2Infinity()
	for _, pk := range pks {
		acc = acc.Add(pk.p)
	}
	return &PublicKey{p: acc}
}

func TestAggregatePublicKeysMatchesNaive(t *testing.T) {
	for _, n := range []int{1, 2, 17, 256} {
		pks := make([]*PublicKey, n)
		for i := range pks {
			pks[i] = &PublicKey{p: G2Generator().Mul(big.NewInt(int64(i + 1)))}
		}
		got, err := AggregatePublicKeys(pks)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(aggregatePublicKeysNaive(pks)) {
			t.Fatalf("n=%d: aggregate key mismatch", n)
		}
	}
}

// TestAggregatePublicKeysRefusesRepeat: a key equal to an earlier one is
// refused whatever its coordinates (Jacobian or affine), and a key's
// negation, which shares its x, is not a repeat.
func TestAggregatePublicKeysRefusesRepeat(t *testing.T) {
	p := G2Generator().Mul(big.NewInt(5)) // Jacobian, Z ≠ 1
	if p.z.isOne() {
		t.Fatal("test point is already affine")
	}
	affine, err := PublicKeyFromBytes(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	q := &PublicKey{p: G2Generator().Mul(big.NewInt(9))}
	for _, pks := range [][]*PublicKey{{{p: p}, q, affine}, {q, q}} {
		if _, err := AggregatePublicKeys(pks); err == nil {
			t.Fatal("aggregate over a repeated key accepted")
		}
	}
	for _, neg := range []G2{p.Neg(), affine.p.Neg()} {
		got, err := AggregatePublicKeys([]*PublicKey{affine, q, {p: neg}})
		if err != nil {
			t.Fatalf("a key and its negation refused: %v", err)
		}
		if !got.Equal(q) {
			t.Fatal("P + Q − P is not Q")
		}
	}
}

// parsedRoster builds n distinct parsed public keys the way the provider
// sees them (deserialized, hence affine) — the realistic input shape for
// per-epoch roster aggregation.
func parsedRoster(b *testing.B, n int) []*PublicKey {
	pks := make([]*PublicKey, n)
	p := G2Generator()
	step := G2Generator().Mul(big.NewInt(0x9e3779b9))
	for i := range pks {
		p = p.Add(step)
		pk, err := PublicKeyFromBytes(G2{x: p.x, y: p.y, z: p.z}.Bytes())
		if err != nil {
			b.Fatal(err)
		}
		pks[i] = pk
	}
	return pks
}

func BenchmarkAggregatePublicKeys1024(b *testing.B) {
	pks := parsedRoster(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AggregatePublicKeys(pks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAggregatePublicKeysNaive1024(b *testing.B) {
	pks := parsedRoster(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = aggregatePublicKeysNaive(pks)
	}
}

// The full per-epoch roster path — parse every key off the wire, then
// aggregate — is what fleet-scale verification actually pays. The roster
// is in the seed's uncompressed format (the baseline wire encoding); the
// new path runs ψ subgroup checks and the batch-affine sum, the naive
// baseline the retained full-r-multiplication checks and the Jacobian
// summation chain.
func uncompressedRoster(b *testing.B, n int) [][]byte {
	out := make([][]byte, n)
	p := G2Generator()
	step := G2Generator().Mul(big.NewInt(0x9e3779b9))
	for i := range out {
		p = p.Add(step)
		out[i] = p.Bytes()
	}
	return out
}

func BenchmarkRosterParseAggregate1024(b *testing.B) {
	enc := uncompressedRoster(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pks := make([]*PublicKey, len(enc))
		for j, e := range enc {
			pk, err := PublicKeyFromBytes(e)
			if err != nil {
				b.Fatal(err)
			}
			pks[j] = pk
		}
		if _, err := AggregatePublicKeys(pks); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRosterParseAggregateNaive1024(b *testing.B) {
	enc := uncompressedRoster(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pks := make([]*PublicKey, len(enc))
		for j, e := range enc {
			p, err := g2DecodeUncompressed(e)
			if err != nil {
				b.Fatal(err)
			}
			if !p.inSubgroupNaive() {
				b.Fatal("rejected")
			}
			pks[j] = &PublicKey{p: p}
		}
		_ = aggregatePublicKeysNaive(pks)
	}
}
