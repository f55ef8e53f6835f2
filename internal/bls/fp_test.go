package bls

// Tower tests: algebraic laws for the new fe2/fe6/fe12 types, differential
// checks against the independent legacy math/big tower, and verification of
// the Frobenius/cyclotomic shortcuts against their defining exponentiations.

import (
	"math/big"
	"testing"
)

func randFe2(t testing.TB) fe2 {
	var z fe2
	feFromBig(&z.c0, randFeBig(t))
	feFromBig(&z.c1, randFeBig(t))
	return z
}

func randFe6(t testing.TB) fe6 {
	return fe6{randFe2(t), randFe2(t), randFe2(t)}
}

func randFe12(t testing.TB) fe12 {
	return fe12{randFe6(t), randFe6(t)}
}

// randCyclotomic produces an element of the cyclotomic subgroup by pushing
// a random element through the easy part of the final exponentiation.
func randCyclotomic(t testing.TB) fe12 {
	f := randFe12(t)
	var c, i, m, m2 fe12
	c.conj(&f)
	i.inv(&f)
	m.mul(&c, &i)
	m2.frobeniusSquare(&m)
	m.mul(&m, &m2)
	return m
}

func TestFe2Differential(t *testing.T) {
	for i := 0; i < 32; i++ {
		a, b := randFe2(t), randFe2(t)
		la, lb := fe2ToLegacy(&a), fe2ToLegacy(&b)
		var z fe2
		z.mul(&a, &b)
		if !fe2ToLegacy(&z).equalL(la.mulL(lb)) {
			t.Fatal("fe2 mul mismatch")
		}
		z.square(&a)
		if !fe2ToLegacy(&z).equalL(la.squareL()) {
			t.Fatal("fe2 square mismatch")
		}
		z.mulByNonResidue(&a)
		if !fe2ToLegacy(&z).equalL(la.mulByXi()) {
			t.Fatal("fe2 mulByNonResidue mismatch")
		}
		if a.isZero() {
			continue
		}
		z.inv(&a)
		if !fe2ToLegacy(&z).equalL(la.invL()) {
			t.Fatal("fe2 inv mismatch")
		}
	}
}

func TestFe6Differential(t *testing.T) {
	for i := 0; i < 16; i++ {
		a, b := randFe6(t), randFe6(t)
		la, lb := fe6ToLegacy(&a), fe6ToLegacy(&b)
		var z fe6
		z.mul(&a, &b)
		if !fe6ToLegacy(&z).equalL(la.mulL(lb)) {
			t.Fatal("fe6 mul mismatch")
		}
		z.square(&a)
		if !fe6ToLegacy(&z).equalL(la.squareL()) {
			t.Fatal("fe6 square mismatch")
		}
		z.mulByNonResidue(&a)
		if !fe6ToLegacy(&z).equalL(la.mulByV()) {
			t.Fatal("fe6 mulByNonResidue mismatch")
		}
		if a.isZero() {
			continue
		}
		z.inv(&a)
		if !fe6ToLegacy(&z).equalL(la.invL()) {
			t.Fatal("fe6 inv mismatch")
		}
	}
}

func TestFe6SparseMul(t *testing.T) {
	for i := 0; i < 16; i++ {
		a := randFe6(t)
		c0, c1 := randFe2(t), randFe2(t)
		sparse := fe6{b0: c0, b1: c1}
		var want, got fe6
		want.mul(&a, &sparse)
		got.mulBy01(&a, &c0, &c1)
		if !got.equal(&want) {
			t.Fatal("mulBy01 mismatch")
		}
		sparse = fe6{b1: c1}
		want.mul(&a, &sparse)
		got.mulBy1(&a, &c1)
		if !got.equal(&want) {
			t.Fatal("mulBy1 mismatch")
		}
	}
}

func TestFe12Differential(t *testing.T) {
	for i := 0; i < 8; i++ {
		a, b := randFe12(t), randFe12(t)
		la, lb := fe12ToLegacy(&a), fe12ToLegacy(&b)
		var z fe12
		z.mul(&a, &b)
		if !fe12ToLegacy(&z).equalL(la.mulL(lb)) {
			t.Fatal("fe12 mul mismatch")
		}
		z.square(&a)
		if !fe12ToLegacy(&z).equalL(la.squareL()) {
			t.Fatal("fe12 square mismatch (the old tower's missing dedicated formula)")
		}
		z.inv(&a)
		if !fe12ToLegacy(&z).equalL(la.invL()) {
			t.Fatal("fe12 inv mismatch")
		}
		z.conj(&a)
		if !fe12ToLegacy(&z).equalL(la.conjL()) {
			t.Fatal("fe12 conj mismatch")
		}
	}
}

func TestFe12SquareIsDedicated(t *testing.T) {
	// square must agree with mul(x, x) — and with the legacy oracle — for
	// the dedicated complex-squaring formula to be sound.
	for i := 0; i < 8; i++ {
		a := randFe12(t)
		var s, m fe12
		s.square(&a)
		m.mul(&a, &a)
		if !s.equal(&m) {
			t.Fatal("fe12 square != mul(x, x)")
		}
	}
}

func TestFe12MulBy014(t *testing.T) {
	for i := 0; i < 16; i++ {
		a := randFe12(t)
		c0, c1, c4 := randFe2(t), randFe2(t), randFe2(t)
		sparse := fe12{
			a0: fe6{b0: c0, b1: c1},
			a1: fe6{b1: c4},
		}
		var want fe12
		want.mul(&a, &sparse)
		got := a
		got.mulBy014(&c0, &c1, &c4)
		if !got.equal(&want) {
			t.Fatal("mulBy014 mismatch")
		}
	}
}

func TestFe12MulByLine(t *testing.T) {
	for i := 0; i < 16; i++ {
		a := randFe12(t)
		c0, c1 := randFe2(t), randFe2(t)
		var one fe2
		one.setOne()
		sparse := fe12{
			a0: fe6{b0: c0, b1: c1},
			a1: fe6{b1: one},
		}
		var want fe12
		want.mul(&a, &sparse)
		got := a
		got.mulByLine(&c0, &c1)
		if !got.equal(&want) {
			t.Fatal("mulByLine mismatch")
		}
	}
}

func TestFrobeniusMatchesExponentiation(t *testing.T) {
	a := randFe12(t)
	la := fe12ToLegacy(&a)
	var z fe12
	z.frobenius(&a)
	if !fe12ToLegacy(&z).equalL(la.expL(pMod)) {
		t.Fatal("frobenius != x^p")
	}
	z.frobeniusSquare(&a)
	if !fe12ToLegacy(&z).equalL(la.expL(pSquared)) {
		t.Fatal("frobeniusSquare != x^{p²}")
	}
	z.conj(&a)
	p6 := new(big.Int).Exp(pMod, big.NewInt(6), nil)
	if !fe12ToLegacy(&z).equalL(la.expL(p6)) {
		t.Fatal("conj != x^{p⁶}")
	}
}

func TestCyclotomicSquare(t *testing.T) {
	for i := 0; i < 4; i++ {
		m := randCyclotomic(t)
		var want, got fe12
		want.square(&m)
		got.cyclotomicSquare(&m)
		if !got.equal(&want) {
			t.Fatal("cyclotomic square mismatch in cyclotomic subgroup")
		}
	}
}

func TestExpByX(t *testing.T) {
	m := randCyclotomic(t)
	var got fe12
	got.expByX(&m)
	// x is negative: m^x = (m^{|x|})⁻¹.
	want := fe12ToLegacy(&m).expL(blsXAbs).invL()
	if !fe12ToLegacy(&got).equalL(want) {
		t.Fatal("expByX mismatch")
	}
}

func TestHardPartDecomposition(t *testing.T) {
	// The Hayashida–Hayasaka–Teruya chain computes the exponent
	// (x−1)²(x+p)(x²+p²−1) + 3; check it equals 3·(p⁴−p²+1)/r exactly.
	x := new(big.Int).Neg(blsXAbs)
	xm1 := new(big.Int).Sub(x, big.NewInt(1))
	e := new(big.Int).Mul(xm1, xm1)
	e.Mul(e, new(big.Int).Add(x, pMod))
	t2 := new(big.Int).Mul(x, x)
	t2.Add(t2, pSquared)
	t2.Sub(t2, big.NewInt(1))
	e.Mul(e, t2)
	e.Add(e, big.NewInt(3))
	want := new(big.Int).Mul(hardExp, big.NewInt(3))
	if e.Cmp(want) != 0 {
		t.Fatal("hard-part exponent decomposition does not equal 3·(p⁴−p²+1)/r")
	}
}

func TestFe12FieldLaws(t *testing.T) {
	for i := 0; i < 3; i++ {
		a, b := randFe12(t), randFe12(t)
		var ab, ba fe12
		ab.mul(&a, &b)
		ba.mul(&b, &a)
		if !ab.equal(&ba) {
			t.Fatal("fe12 mul not commutative")
		}
		var ai, one fe12
		ai.inv(&a)
		one.mul(&a, &ai)
		if !one.isOne() {
			t.Fatal("fe12 inverse broken")
		}
		var id fe12
		id.setOne()
		var aid fe12
		aid.mul(&a, &id)
		if !aid.equal(&a) {
			t.Fatal("fe12 identity broken")
		}
	}
}

func TestFe2NonResidue(t *testing.T) {
	// u² = −1
	var u, u2, minus1 fe2
	u.c1 = feR
	u2.square(&u)
	feNeg(&minus1.c0, &feR)
	if !u2.equal(&minus1) {
		t.Fatal("u² != -1")
	}
}

func TestFe6VCubed(t *testing.T) {
	// v³ = ξ: shifting three times by v equals scaling every slot by ξ.
	a := randFe6(t)
	var byV fe6
	byV.mulByNonResidue(&a)
	byV.mulByNonResidue(&byV)
	byV.mulByNonResidue(&byV)
	var want fe6
	want.b0.mulByNonResidue(&a.b0)
	want.b1.mulByNonResidue(&a.b1)
	want.b2.mulByNonResidue(&a.b2)
	if !byV.equal(&want) {
		t.Fatal("v³ != ξ")
	}
}

func TestHardExpWellFormed(t *testing.T) {
	// (p⁴ − p² + 1) = hardExp · r exactly.
	p2 := new(big.Int).Mul(pMod, pMod)
	p4 := new(big.Int).Mul(p2, p2)
	e := new(big.Int).Sub(p4, p2)
	e.Add(e, big.NewInt(1))
	if new(big.Int).Mul(hardExp, rOrder).Cmp(e) != 0 {
		t.Fatal("hardExp · r != p⁴ − p² + 1")
	}
}
