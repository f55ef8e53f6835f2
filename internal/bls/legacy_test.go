package bls

// legacy_test.go preserves the original simulator-grade pairing engine —
// math/big field arithmetic, generic-Fp12 tower, untwist-based Miller loop,
// square-and-multiply final exponentiation — as a test-only differential
// oracle. It shares no code with the limb/tower production implementation,
// so agreement between the two on random inputs is strong evidence of
// correctness for both.

import "math/big"

var (
	// pMod is the base-field modulus as a big.Int; production field math
	// runs on limbs (fp_limb.go).
	pMod = mustBig("1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab")

	// blsXAbs is |x|, the absolute value of the curve parameter.
	blsXAbs = mustBig("d201000000010000")

	big3 = big.NewInt(3)
	big4 = big.NewInt(4)

	// sqrtExp = (p+1)/4, valid because p ≡ 3 (mod 4).
	sqrtExp = new(big.Int).Rsh(new(big.Int).Add(pMod, big.NewInt(1)), 2)

	// pSquared = p², used for the Frobenius-free easy final exponentiation.
	pSquared = new(big.Int).Mul(pMod, pMod)

	// hardExp = (p⁴ − p² + 1)/r, the hard part of the final exponentiation.
	hardExp = func() *big.Int {
		p2 := new(big.Int).Mul(pMod, pMod)
		p4 := new(big.Int).Mul(p2, p2)
		e := new(big.Int).Sub(p4, p2)
		e.Add(e, big.NewInt(1))
		q, m := new(big.Int).DivMod(e, rOrder, new(big.Int))
		if m.Sign() != 0 {
			panic("bls: r does not divide p^4 - p^2 + 1")
		}
		return q
	}()
)

// --- legacy Fp ---

func fpAdd(a, b *big.Int) *big.Int {
	v := new(big.Int).Add(a, b)
	if v.Cmp(pMod) >= 0 {
		v.Sub(v, pMod)
	}
	return v
}

func fpSub(a, b *big.Int) *big.Int {
	v := new(big.Int).Sub(a, b)
	if v.Sign() < 0 {
		v.Add(v, pMod)
	}
	return v
}

func fpMul(a, b *big.Int) *big.Int {
	v := new(big.Int).Mul(a, b)
	return v.Mod(v, pMod)
}

func fpNeg(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(pMod, a)
}

func fpInv(a *big.Int) *big.Int {
	v := new(big.Int).ModInverse(a, pMod)
	if v == nil {
		panic("bls: inverse of zero field element")
	}
	return v
}

func fpFromInt(x int64) *big.Int {
	v := big.NewInt(x)
	return v.Mod(v, pMod)
}

// --- legacy Fp2 = Fp[u]/(u² + 1) ---

type fp2 struct{ c0, c1 *big.Int }

func fp2Zero() fp2 { return fp2{new(big.Int), new(big.Int)} }
func fp2One() fp2  { return fp2{big.NewInt(1), new(big.Int)} }

func (a fp2) isZero() bool { return a.c0.Sign() == 0 && a.c1.Sign() == 0 }

func (a fp2) equalL(b fp2) bool { return a.c0.Cmp(b.c0) == 0 && a.c1.Cmp(b.c1) == 0 }

func (a fp2) addL(b fp2) fp2 { return fp2{fpAdd(a.c0, b.c0), fpAdd(a.c1, b.c1)} }
func (a fp2) subL(b fp2) fp2 { return fp2{fpSub(a.c0, b.c0), fpSub(a.c1, b.c1)} }
func (a fp2) negL() fp2      { return fp2{fpNeg(a.c0), fpNeg(a.c1)} }

func (a fp2) mulL(b fp2) fp2 {
	t0 := fpMul(a.c0, b.c0)
	t1 := fpMul(a.c1, b.c1)
	c0 := fpSub(t0, t1)
	c1 := fpSub(fpSub(fpMul(fpAdd(a.c0, a.c1), fpAdd(b.c0, b.c1)), t0), t1)
	return fp2{c0, c1}
}

func (a fp2) squareL() fp2 { return a.mulL(a) }

// mulByXi multiplies by ξ = 1 + u, the Fp6 non-residue.
func (a fp2) mulByXi() fp2 {
	return fp2{fpSub(a.c0, a.c1), fpAdd(a.c0, a.c1)}
}

func (a fp2) invL() fp2 {
	d := fpAdd(fpMul(a.c0, a.c0), fpMul(a.c1, a.c1))
	di := fpInv(d)
	return fp2{fpMul(a.c0, di), fpMul(fpNeg(a.c1), di)}
}

// --- legacy Fp6 = Fp2[v]/(v³ − ξ) ---

type fp6 struct{ b0, b1, b2 fp2 }

func fp6Zero() fp6 { return fp6{fp2Zero(), fp2Zero(), fp2Zero()} }
func fp6One() fp6  { return fp6{fp2One(), fp2Zero(), fp2Zero()} }

func (a fp6) isZero() bool { return a.b0.isZero() && a.b1.isZero() && a.b2.isZero() }

func (a fp6) equalL(b fp6) bool {
	return a.b0.equalL(b.b0) && a.b1.equalL(b.b1) && a.b2.equalL(b.b2)
}

func (a fp6) addL(b fp6) fp6 { return fp6{a.b0.addL(b.b0), a.b1.addL(b.b1), a.b2.addL(b.b2)} }
func (a fp6) subL(b fp6) fp6 { return fp6{a.b0.subL(b.b0), a.b1.subL(b.b1), a.b2.subL(b.b2)} }

func (a fp6) mulL(b fp6) fp6 {
	t0 := a.b0.mulL(b.b0)
	t1 := a.b1.mulL(b.b1)
	t2 := a.b2.mulL(b.b2)
	c0 := a.b1.addL(a.b2).mulL(b.b1.addL(b.b2)).subL(t1).subL(t2).mulByXi().addL(t0)
	c1 := a.b0.addL(a.b1).mulL(b.b0.addL(b.b1)).subL(t0).subL(t1).addL(t2.mulByXi())
	c2 := a.b0.addL(a.b2).mulL(b.b0.addL(b.b2)).subL(t0).subL(t2).addL(t1)
	return fp6{c0, c1, c2}
}

func (a fp6) squareL() fp6 { return a.mulL(a) }

// mulByV multiplies by v: (b0 + b1 v + b2 v²)·v = ξ b2 + b0 v + b1 v².
func (a fp6) mulByV() fp6 { return fp6{a.b2.mulByXi(), a.b0, a.b1} }

func (a fp6) invL() fp6 {
	c0 := a.b0.squareL().subL(a.b1.mulL(a.b2).mulByXi())
	c1 := a.b2.squareL().mulByXi().subL(a.b0.mulL(a.b1))
	c2 := a.b1.squareL().subL(a.b0.mulL(a.b2))
	t := a.b0.mulL(c0).addL(a.b2.mulL(c1).mulByXi()).addL(a.b1.mulL(c2).mulByXi())
	ti := t.invL()
	return fp6{c0.mulL(ti), c1.mulL(ti), c2.mulL(ti)}
}

// --- legacy Fp12 = Fp6[w]/(w² − v) ---

type fp12 struct{ a0, a1 fp6 }

func fp12One() fp12 { return fp12{fp6One(), fp6Zero()} }

func (a fp12) equalL(b fp12) bool { return a.a0.equalL(b.a0) && a.a1.equalL(b.a1) }

func (a fp12) isOneL() bool { return a.equalL(fp12One()) }

func (a fp12) mulL(b fp12) fp12 {
	t0 := a.a0.mulL(b.a0)
	t1 := a.a1.mulL(b.a1)
	c0 := t0.addL(t1.mulByV())
	c1 := a.a0.addL(a.a1).mulL(b.a0.addL(b.a1)).subL(t0).subL(t1)
	return fp12{c0, c1}
}

func (a fp12) squareL() fp12 { return a.mulL(a) }

func (a fp12) addL(b fp12) fp12 { return fp12{a.a0.addL(b.a0), a.a1.addL(b.a1)} }
func (a fp12) subL(b fp12) fp12 { return fp12{a.a0.subL(b.a0), a.a1.subL(b.a1)} }

// conjL returns the conjugate a0 − a1 w, which equals a^{p⁶}.
func (a fp12) conjL() fp12 { return fp12{a.a0, fp6Zero().subL(a.a1)} }

func (a fp12) invL() fp12 {
	t := a.a0.squareL().subL(a.a1.squareL().mulByV()).invL()
	return fp12{a.a0.mulL(t), fp6Zero().subL(a.a1).mulL(t)}
}

// expL raises a to a non-negative exponent by square-and-multiply.
func (a fp12) expL(e *big.Int) fp12 {
	out := fp12One()
	for i := e.BitLen() - 1; i >= 0; i-- {
		out = out.squareL()
		if e.Bit(i) == 1 {
			out = out.mulL(a)
		}
	}
	return out
}

func fp12Scalar(x *big.Int) fp12 {
	out := fp12{fp6Zero(), fp6Zero()}
	out.a0.b0.c0 = new(big.Int).Set(x)
	return out
}

func fp12FromFp2(x fp2) fp12 {
	out := fp12{fp6Zero(), fp6Zero()}
	out.a0.b0 = fp2{new(big.Int).Set(x.c0), new(big.Int).Set(x.c1)}
	return out
}

func fp12W() fp12 {
	return fp12{fp6Zero(), fp6One()}
}

// --- legacy pairing (untwist + textbook Miller loop) ---

// bigG1 / bigG2 are affine points with math/big coordinates.
type bigG1 struct {
	x, y *big.Int
	inf  bool
}

type bigG2 struct {
	x, y fp2
	inf  bool
}

// toBigG1 / toBigG2 convert production points into the legacy
// representation.
func toBigG1(p G1) bigG1 {
	ax, ay, inf := p.affine()
	if inf {
		return bigG1{inf: true}
	}
	return bigG1{x: feToBig(&ax), y: feToBig(&ay)}
}

func toBigG2(p G2) bigG2 {
	ax, ay, inf := p.affine()
	if inf {
		return bigG2{inf: true}
	}
	return bigG2{
		x: fp2{feToBig(&ax.c0), feToBig(&ax.c1)},
		y: fp2{feToBig(&ay.c0), feToBig(&ay.c1)},
	}
}

type g1Fp12 struct {
	x, y fp12
	inf  bool
}

// untwist maps a twist point into E(Fp12): (x, y) → (x/w², y/w³).
func untwist(q bigG2) g1Fp12 {
	if q.inf {
		return g1Fp12{inf: true}
	}
	w := fp12W()
	wInv := w.invL()
	w2Inv := wInv.mulL(wInv)
	w3Inv := w2Inv.mulL(wInv)
	return g1Fp12{
		x: fp12FromFp2(q.x).mulL(w2Inv),
		y: fp12FromFp2(q.y).mulL(w3Inv),
	}
}

func embedG1(p bigG1) g1Fp12 {
	if p.inf {
		return g1Fp12{inf: true}
	}
	return g1Fp12{x: fp12Scalar(p.x), y: fp12Scalar(p.y)}
}

func lineDouble(t, p g1Fp12) (g1Fp12, fp12) {
	three := fp12Scalar(fpFromInt(3))
	two := fp12Scalar(fpFromInt(2))
	lambda := three.mulL(t.x.squareL()).mulL(two.mulL(t.y).invL())
	x3 := lambda.squareL().subL(t.x).subL(t.x)
	y3 := lambda.mulL(t.x.subL(x3)).subL(t.y)
	l := p.y.subL(t.y).subL(lambda.mulL(p.x.subL(t.x)))
	return g1Fp12{x: x3, y: y3}, l
}

func lineAdd(t, q, p g1Fp12) (g1Fp12, fp12) {
	if t.x.equalL(q.x) {
		if t.y.equalL(q.y) {
			return lineDouble(t, p)
		}
		return g1Fp12{inf: true}, p.x.subL(t.x)
	}
	lambda := q.y.subL(t.y).mulL(q.x.subL(t.x).invL())
	x3 := lambda.squareL().subL(t.x).subL(q.x)
	y3 := lambda.mulL(t.x.subL(x3)).subL(t.y)
	l := p.y.subL(t.y).subL(lambda.mulL(p.x.subL(t.x)))
	return g1Fp12{x: x3, y: y3}, l
}

func legacyMiller(p bigG1, q bigG2) fp12 {
	if p.inf || q.inf {
		return fp12One()
	}
	pe := embedG1(p)
	qe := untwist(q)
	f := fp12One()
	t := qe
	for i := blsXAbs.BitLen() - 2; i >= 0; i-- {
		var l fp12
		t, l = lineDouble(t, pe)
		f = f.squareL().mulL(l)
		if blsXAbs.Bit(i) == 1 {
			t, l = lineAdd(t, qe, pe)
			f = f.mulL(l)
		}
	}
	return f.conjL()
}

func legacyFinalExp(f fp12) fp12 {
	f1 := f.conjL().mulL(f.invL())
	f2 := f1.expL(pSquared).mulL(f1)
	return f2.expL(hardExp)
}

// legacyPair computes the textbook reduced pairing f^{(p⁴−p²+1)/r}.
func legacyPair(p G1, q G2) fp12 {
	return legacyFinalExp(legacyMiller(toBigG1(p), toBigG2(q)))
}

// legacyPairingCheck mirrors the seed PairingCheck: multiply Miller-loop
// outputs, one legacy final exponentiation.
func legacyPairingCheck(ps []G1, qs []G2) bool {
	acc := fp12One()
	for i := range ps {
		acc = acc.mulL(legacyMiller(toBigG1(ps[i]), toBigG2(qs[i])))
	}
	return legacyFinalExp(acc).isOneL()
}

// --- bridges between the towers (test-only) ---

// toFe2Big / fe12 conversions let differential tests compare towers.
func fe2FromLegacy(z *fe2, a fp2) {
	feFromBig(&z.c0, a.c0)
	feFromBig(&z.c1, a.c1)
}

func fe6FromLegacy(z *fe6, a fp6) {
	fe2FromLegacy(&z.b0, a.b0)
	fe2FromLegacy(&z.b1, a.b1)
	fe2FromLegacy(&z.b2, a.b2)
}

func fe12FromLegacy(z *fe12, a fp12) {
	fe6FromLegacy(&z.a0, a.a0)
	fe6FromLegacy(&z.a1, a.a1)
}

func fe2ToLegacy(a *fe2) fp2 {
	return fp2{feToBig(&a.c0), feToBig(&a.c1)}
}

func fe6ToLegacy(a *fe6) fp6 {
	return fp6{fe2ToLegacy(&a.b0), fe2ToLegacy(&a.b1), fe2ToLegacy(&a.b2)}
}

func fe12ToLegacy(a *fe12) fp12 {
	return fp12{fe6ToLegacy(&a.a0), fe6ToLegacy(&a.a1)}
}
