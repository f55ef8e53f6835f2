package bls

// fp6.go implements Fp6 = Fp2[v]/(v³ − ξ) with interpolated (Karatsuba-
// style, 6 fe2-mul) multiplication, CH-SQR3 squaring (2 muls + 3 squares),
// and the sparse product mulBy01 that the Miller loop's line
// multiplications reduce to.

type fe6 struct{ b0, b1, b2 fe2 }

func (z *fe6) setZero() { *z = fe6{} }
func (z *fe6) setOne() {
	z.b0.setOne()
	z.b1.setZero()
	z.b2.setZero()
}
func (x *fe6) isZero() bool { return x.b0.isZero() && x.b1.isZero() && x.b2.isZero() }
func (x *fe6) isOne() bool  { return x.b0.isOne() && x.b1.isZero() && x.b2.isZero() }

func (z *fe6) add(x, y *fe6) {
	z.b0.add(&x.b0, &y.b0)
	z.b1.add(&x.b1, &y.b1)
	z.b2.add(&x.b2, &y.b2)
}

func (z *fe6) double(x *fe6) { z.add(x, x) }

func (z *fe6) sub(x, y *fe6) {
	z.b0.sub(&x.b0, &y.b0)
	z.b1.sub(&x.b1, &y.b1)
	z.b2.sub(&x.b2, &y.b2)
}

func (z *fe6) neg(x *fe6) {
	z.b0.neg(&x.b0)
	z.b1.neg(&x.b1)
	z.b2.neg(&x.b2)
}

// mul sets z = x·y (Karatsuba interpolation, 6 fe2 multiplications).
func (z *fe6) mul(x, y *fe6) {
	if useADX {
		fe6MulADX(z, x, y)
		return
	}
	z.mulGeneric(x, y)
}

func (z *fe6) mulGeneric(x, y *fe6) {
	var t0, t1, t2, s0, s1, c0, c1, c2 fe2
	t0.mul(&x.b0, &y.b0)
	t1.mul(&x.b1, &y.b1)
	t2.mul(&x.b2, &y.b2)

	// c0 = t0 + ξ((b1+b2)(y1+y2) − t1 − t2)
	s0.add(&x.b1, &x.b2)
	s1.add(&y.b1, &y.b2)
	c0.mul(&s0, &s1)
	c0.sub(&c0, &t1)
	c0.sub(&c0, &t2)
	c0.mulByNonResidue(&c0)
	c0.add(&c0, &t0)

	// c1 = (b0+b1)(y0+y1) − t0 − t1 + ξ t2
	s0.add(&x.b0, &x.b1)
	s1.add(&y.b0, &y.b1)
	c1.mul(&s0, &s1)
	c1.sub(&c1, &t0)
	c1.sub(&c1, &t1)
	s0.mulByNonResidue(&t2)
	c1.add(&c1, &s0)

	// c2 = (b0+b2)(y0+y2) − t0 − t2 + t1
	s0.add(&x.b0, &x.b2)
	s1.add(&y.b0, &y.b2)
	c2.mul(&s0, &s1)
	c2.sub(&c2, &t0)
	c2.sub(&c2, &t2)
	c2.add(&c2, &t1)

	z.b0, z.b1, z.b2 = c0, c1, c2
}

// square sets z = x² by CH-SQR3: s0 = b0², s1 = 2b0b1, s2 = (b0−b1+b2)²,
// s3 = 2b1b2, s4 = b2²; 2 fe2 muls + 3 fe2 squares vs mul's 6 muls.
func (z *fe6) square(x *fe6) {
	var s0, s1, s2, s3, s4, t fe2
	s0.square(&x.b0)
	s1.mul(&x.b0, &x.b1)
	s1.double(&s1)
	t.sub(&x.b0, &x.b1)
	t.add(&t, &x.b2)
	s2.square(&t)
	s3.mul(&x.b1, &x.b2)
	s3.double(&s3)
	s4.square(&x.b2)

	// c0 = s0 + ξ s3; c1 = s1 + ξ s4; c2 = s1 + s2 + s3 − s0 − s4
	t.mulByNonResidue(&s3)
	z.b0.add(&s0, &t)
	t.mulByNonResidue(&s4)
	var c1 fe2
	c1.add(&s1, &t)
	var c2 fe2
	c2.add(&s1, &s2)
	c2.add(&c2, &s3)
	c2.sub(&c2, &s0)
	c2.sub(&c2, &s4)
	z.b1, z.b2 = c1, c2
}

// mulByNonResidue sets z = v·x: (b0 + b1 v + b2 v²)·v = ξ b2 + b0 v + b1 v².
func (z *fe6) mulByNonResidue(x *fe6) {
	var t fe2
	t.mulByNonResidue(&x.b2)
	z.b2 = x.b1
	z.b1 = x.b0
	z.b0 = t
}

// mulBy01 sets z = x·(c0 + c1·v) — the sparse product line multiplications
// need (5 fe2 muls instead of 6).
func (z *fe6) mulBy01(x *fe6, c0, c1 *fe2) {
	var a, b, t, u0, u1, u2 fe2
	a.mul(&x.b0, c0)
	b.mul(&x.b1, c1)

	// z0 = a + ξ((b1+b2)c1 − b)
	t.add(&x.b1, &x.b2)
	u0.mul(&t, c1)
	u0.sub(&u0, &b)
	u0.mulByNonResidue(&u0)
	u0.add(&u0, &a)

	// z1 = (b0+b1)(c0+c1) − a − b
	t.add(&x.b0, &x.b1)
	u1.add(c0, c1)
	u1.mul(&u1, &t)
	u1.sub(&u1, &a)
	u1.sub(&u1, &b)

	// z2 = (b0+b2)c0 − a + b
	t.add(&x.b0, &x.b2)
	u2.mul(&t, c0)
	u2.sub(&u2, &a)
	u2.add(&u2, &b)

	z.b0, z.b1, z.b2 = u0, u1, u2
}

// inv sets z = x⁻¹ via the norm-map formula (one fe2 inversion).
func (z *fe6) inv(x *fe6) {
	var c0, c1, c2, t0, t1 fe2
	// c0 = b0² − ξ b1 b2
	c0.square(&x.b0)
	t0.mul(&x.b1, &x.b2)
	t0.mulByNonResidue(&t0)
	c0.sub(&c0, &t0)
	// c1 = ξ b2² − b0 b1
	c1.square(&x.b2)
	c1.mulByNonResidue(&c1)
	t0.mul(&x.b0, &x.b1)
	c1.sub(&c1, &t0)
	// c2 = b1² − b0 b2
	c2.square(&x.b1)
	t0.mul(&x.b0, &x.b2)
	c2.sub(&c2, &t0)
	// t = b0 c0 + ξ(b2 c1 + b1 c2)
	t0.mul(&x.b2, &c1)
	t1.mul(&x.b1, &c2)
	t0.add(&t0, &t1)
	t0.mulByNonResidue(&t0)
	t1.mul(&x.b0, &c0)
	t0.add(&t0, &t1)
	t0.inv(&t0)
	z.b0.mul(&c0, &t0)
	z.b1.mul(&c1, &t0)
	z.b2.mul(&c2, &t0)
}
