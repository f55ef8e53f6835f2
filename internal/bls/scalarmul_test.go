package bls

// Property and differential tests for the endomorphism layer: the
// endomorphisms act as their claimed eigenvalues on the order-r
// subgroups, the |z| chains and the mixed additions match double-and-add
// (mulRaw) and the general addition. The GLV walk's tests are in
// scalarmul_ct_test.go.

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func randScalar(t testing.TB) *big.Int {
	k, err := rand.Int(rand.Reader, rOrder)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestG1PhiEigenvalue(t *testing.T) {
	glvInit()
	for i := 0; i < 8; i++ {
		p := G1Generator().mulRaw(randScalar(t))
		if !g1Phi(p).Equal(p.mulRaw(glvLambdaBig)) {
			t.Fatal("φ(P) != [λ]P on G1")
		}
	}
}

func TestG2PsiEigenvalue(t *testing.T) {
	// ψ acts as multiplication by z ≡ p (mod r) on G2.
	zModR := new(big.Int).Mod(new(big.Int).Neg(new(big.Int).SetUint64(blsX)), rOrder)
	for i := 0; i < 8; i++ {
		p := G2Generator().mulRaw(randScalar(t))
		if !g2Psi(p).Equal(p.mulRaw(zModR)) {
			t.Fatal("ψ(P) != [z]P on G2")
		}
		if !g2Psi(p).OnCurve() {
			t.Fatal("ψ(P) left the twist")
		}
	}
}

func TestMulZAbsMatchesNaive(t *testing.T) {
	z := new(big.Int).SetUint64(blsX)
	p1 := G1Generator().mulRaw(randScalar(t))
	if !p1.mulZAbs().Equal(p1.mulRaw(z)) {
		t.Fatal("G1 [|z|] multiplication wrong")
	}
	p2 := G2Generator().mulRaw(randScalar(t))
	if !p2.mulZAbs().Equal(p2.mulRaw(z)) {
		t.Fatal("G2 [|z|] multiplication wrong")
	}
}

func TestG1AddMixedMatchesAdd(t *testing.T) {
	p := G1Generator().mulRaw(randScalar(t))
	q := G1Generator().mulRaw(randScalar(t))
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
	p := G2Generator().mulRaw(randScalar(t))
	q := G2Generator().mulRaw(randScalar(t))
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

func BenchmarkG1MulNaive(b *testing.B) {
	p := G1Generator().mulRaw(randScalar(b))
	k := randScalar(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.mulRaw(k)
	}
}

func BenchmarkG2MulNaive(b *testing.B) {
	p := G2Generator().mulRaw(randScalar(b))
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
