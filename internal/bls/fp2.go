package bls

// fp2.go implements Fp2 = Fp[u]/(u² + 1) over the limb-based Montgomery
// field: Karatsuba multiplication (3 base muls), complex squaring (2 base
// muls), and multiplication by the Fp6 non-residue ξ = 1 + u with two
// additions. All methods write through the receiver and are alias-safe.
// add, sub, mulByNonResidue, square and mul branch on useADX alone between
// one assembly call (fp_mul_amd64.s) and their *Generic Go bodies.

type fe2 struct{ c0, c1 fe }

func (z *fe2) setZero()     { *z = fe2{} }
func (z *fe2) setOne()      { z.c0 = feR; z.c1 = fe{} }
func (x *fe2) isZero() bool { return x.c0.isZero() && x.c1.isZero() }
func (x *fe2) isOne() bool  { return x.c0.isOne() && x.c1.isZero() }

func (x *fe2) equal(y *fe2) bool { return x.c0 == y.c0 && x.c1 == y.c1 }

func (z *fe2) add(x, y *fe2) {
	if useADX {
		fe2AddADX(z, x, y)
		return
	}
	z.addGeneric(x, y)
}

func (z *fe2) addGeneric(x, y *fe2) {
	feAdd(&z.c0, &x.c0, &y.c0)
	feAdd(&z.c1, &x.c1, &y.c1)
}

func (z *fe2) double(x *fe2) { z.add(x, x) }

func (z *fe2) sub(x, y *fe2) {
	if useADX {
		fe2SubADX(z, x, y)
		return
	}
	z.subGeneric(x, y)
}

func (z *fe2) subGeneric(x, y *fe2) {
	feSub(&z.c0, &x.c0, &y.c0)
	feSub(&z.c1, &x.c1, &y.c1)
}

func (z *fe2) neg(x *fe2) {
	feNeg(&z.c0, &x.c0)
	feNeg(&z.c1, &x.c1)
}

// conj sets z = x̄ = c0 − c1·u, which is also the Frobenius map x^p since
// p ≡ 3 (mod 4).
func (z *fe2) conj(x *fe2) {
	z.c0 = x.c0
	feNeg(&z.c1, &x.c1)
}

// mul sets z = x·y by Karatsuba: 3 base-field multiplications.
func (z *fe2) mul(x, y *fe2) {
	if useADX {
		fe2MulADX(z, x, y)
		return
	}
	z.mulGeneric(x, y)
}

func (z *fe2) mulGeneric(x, y *fe2) {
	var t0, t1, t2, t3 fe
	feMul(&t0, &x.c0, &y.c0)
	feMul(&t1, &x.c1, &y.c1)
	feAdd(&t2, &x.c0, &x.c1)
	feAdd(&t3, &y.c0, &y.c1)
	feSub(&z.c0, &t0, &t1)
	feMul(&t2, &t2, &t3)
	feSub(&t2, &t2, &t0)
	feSub(&z.c1, &t2, &t1)
}

// square sets z = x² by complex squaring: (c0+c1)(c0−c1) + 2c0c1·u — 2 base
// multiplications instead of mul's 3.
func (z *fe2) square(x *fe2) {
	if useADX {
		fe2SquareADX(z, x)
		return
	}
	z.squareGeneric(x)
}

func (z *fe2) squareGeneric(x *fe2) {
	var t0, t1, t2 fe
	feAdd(&t0, &x.c0, &x.c1)
	feSub(&t1, &x.c0, &x.c1)
	feDouble(&t2, &x.c0)
	feMul(&z.c0, &t0, &t1)
	feMul(&z.c1, &t2, &x.c1)
}

// mulByFe scales both coordinates by a base-field element.
func (z *fe2) mulByFe(x *fe2, s *fe) {
	feMul(&z.c0, &x.c0, s)
	feMul(&z.c1, &x.c1, s)
}

// mulByNonResidue sets z = ξ·x with ξ = 1 + u:
// (c0 − c1) + (c0 + c1)·u.
func (z *fe2) mulByNonResidue(x *fe2) {
	if useADX {
		fe2MulByNonResidueADX(z, x)
		return
	}
	z.mulByNonResidueGeneric(x)
}

func (z *fe2) mulByNonResidueGeneric(x *fe2) {
	var t0 fe
	feSub(&t0, &x.c0, &x.c1)
	feAdd(&z.c1, &x.c0, &x.c1)
	z.c0 = t0
}

// inv sets z = x⁻¹ = x̄ / (c0² + c1²); z = 0 for x = 0.
func (z *fe2) inv(x *fe2) {
	var t0, t1 fe
	feSquare(&t0, &x.c0)
	feSquare(&t1, &x.c1)
	feAdd(&t0, &t0, &t1)
	feInv(&t0, &t0)
	feMul(&z.c0, &x.c0, &t0)
	feMul(&t1, &x.c1, &t0)
	feNeg(&z.c1, &t1)
}

// expPM34 sets z = x^((p−3)/4) by pm34Chain (fp_limb.go).
func (z *fe2) expPM34(x *fe2) {
	var tbl [1 << (chainWindow - 1)]fe2
	var x2 fe2
	tbl[0] = *x
	x2.square(x)
	for i := 1; i < len(tbl); i++ {
		tbl[i].mul(&tbl[i-1], &x2)
	}
	acc := tbl[pm34Chain[0].mul]
	for _, s := range pm34Chain[1:] {
		for i := 0; i < s.sq; i++ {
			acc.square(&acc)
		}
		if s.mul >= 0 {
			acc.mul(&acc, &tbl[s.mul])
		}
	}
	*z = acc
}

// exp sets z = x^e for a little-endian limb exponent (Frobenius-constant
// derivation at init; not a hot path).
func (z *fe2) exp(x *fe2, e []uint64) {
	var out fe2
	out.setOne()
	base := *x
	for i := len(e) - 1; i >= 0; i-- {
		for b := 63; b >= 0; b-- {
			out.square(&out)
			if e[i]>>uint(b)&1 == 1 {
				out.mul(&out, &base)
			}
		}
	}
	*z = out
}
