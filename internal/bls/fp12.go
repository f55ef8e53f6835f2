package bls

// fp12.go implements Fp12 = Fp6[w]/(w² − v): Karatsuba multiplication,
// complex squaring (2 fe6 muls — the dedicated formula the old tower was
// missing), Granger–Scott cyclotomic squaring for the final exponentiation,
// Frobenius maps via precomputed coefficients, and the sparse mulByLine the
// Miller loop multiplies its normalised lines with.
//
// Frobenius coefficients are derived at package init from first principles
// with the limb field itself (ξ^{k(p−1)/6} and ξ^{k(p²−1)/6}) rather than
// being pasted in as opaque hex.

type fe12 struct{ a0, a1 fe6 }

// frobC1[k] = ξ^{k(p−1)/6} ∈ Fp2: the coefficient the w^k basis slot picks
// up under the Frobenius map x ↦ x^p.
var frobC1 [6]fe2

// frobC2[k] = ξ^{k(p²−1)/6} ∈ Fp: the (real) coefficient for x ↦ x^{p²}.
var frobC2 [6]fe

func init() {
	initFieldConstants() // file-order independent (see fp_limb.go)
	var xi fe2
	xi.c0 = feR // ξ = 1 + u
	xi.c1 = feR

	var g fe2
	g.exp(&xi, pMinus1Over6[:])
	frobC1[0].setOne()
	for k := 1; k < 6; k++ {
		frobC1[k].mul(&frobC1[k-1], &g)
	}

	var g2 fe2
	g2.exp(&xi, pSqMinus1Over6[:])
	if !g2.c1.isZero() {
		panic("bls: ξ^{(p²-1)/6} not in Fp")
	}
	frobC2[0] = feR
	for k := 1; k < 6; k++ {
		feMul(&frobC2[k], &frobC2[k-1], &g2.c0)
	}
}

func (z *fe12) setOne() {
	z.a0.setOne()
	z.a1.setZero()
}
func (x *fe12) isOne() bool { return x.a0.isOne() && x.a1.isZero() }

// mul sets z = x·y (Karatsuba over Fp6: 3 fe6 muls).
func (z *fe12) mul(x, y *fe12) {
	var t0, t1, t2, t3 fe6
	t0.mul(&x.a0, &y.a0)
	t1.mul(&x.a1, &y.a1)
	t2.add(&x.a0, &x.a1)
	t3.add(&y.a0, &y.a1)
	t2.mul(&t2, &t3)
	t2.sub(&t2, &t0)
	t2.sub(&t2, &t1)
	t1.mulByNonResidue(&t1)
	z.a0.add(&t0, &t1)
	z.a1 = t2
}

// square sets z = x² by complex squaring over Fp6 (2 fe6 muls): with
// γ = v, c0 = (a0+a1)(a0+γa1) − a0a1 − γa0a1 and c1 = 2a0a1.
func (z *fe12) square(x *fe12) {
	var t0, t1, t2 fe6
	t0.mul(&x.a0, &x.a1) // a0·a1
	t1.add(&x.a0, &x.a1)
	t2.mulByNonResidue(&x.a1)
	t2.add(&t2, &x.a0)
	t1.mul(&t1, &t2) // (a0+a1)(a0+γa1)
	t1.sub(&t1, &t0)
	t2.mulByNonResidue(&t0)
	z.a0.sub(&t1, &t2)
	z.a1.double(&t0)
}

// conj sets z = a0 − a1·w, which equals x^{p⁶} (and the inverse for
// cyclotomic-subgroup elements).
func (z *fe12) conj(x *fe12) {
	z.a0 = x.a0
	z.a1.neg(&x.a1)
}

// inv sets z = x⁻¹ via the norm map (one fe6 inversion).
func (z *fe12) inv(x *fe12) {
	var t0, t1 fe6
	t0.square(&x.a0)
	t1.square(&x.a1)
	t1.mulByNonResidue(&t1)
	t0.sub(&t0, &t1)
	t0.inv(&t0)
	z.a0.mul(&x.a0, &t0)
	t0.mul(&x.a1, &t0)
	z.a1.neg(&t0)
}

// mulByLine multiplies z by the normalised line c0 + c1·v + v·w: with
// C = c0 + c1·v, (A + Bw)(C + vw) = (AC + v²B) + (vA + BC)w, 10 fe2 muls.
func (z *fe12) mulByLine(c0, c1 *fe2) {
	var a, b, t fe6
	a.mulBy01(&z.a0, c0, c1)
	b.mulBy01(&z.a1, c0, c1)
	t.mulByNonResidue(&z.a1)
	t.mulByNonResidue(&t)
	z.a1.mulByNonResidue(&z.a0)
	z.a1.add(&z.a1, &b)
	z.a0.add(&a, &t)
}

// frobenius sets z = x^p: conjugate every Fp2 coefficient and scale the w^k
// basis slot by frobC1[k] (k = 2i+j for coefficient a_j.b_i).
func (z *fe12) frobenius(x *fe12) {
	z.a0.b0.conj(&x.a0.b0)
	z.a0.b1.conj(&x.a0.b1)
	z.a0.b1.mul(&z.a0.b1, &frobC1[2])
	z.a0.b2.conj(&x.a0.b2)
	z.a0.b2.mul(&z.a0.b2, &frobC1[4])
	z.a1.b0.conj(&x.a1.b0)
	z.a1.b0.mul(&z.a1.b0, &frobC1[1])
	z.a1.b1.conj(&x.a1.b1)
	z.a1.b1.mul(&z.a1.b1, &frobC1[3])
	z.a1.b2.conj(&x.a1.b2)
	z.a1.b2.mul(&z.a1.b2, &frobC1[5])
}

// frobeniusSquare sets z = x^{p²}: scale slot k by the real constant
// frobC2[k] (conjugation applied twice cancels).
func (z *fe12) frobeniusSquare(x *fe12) {
	z.a0.b0 = x.a0.b0
	z.a0.b1.mulByFe(&x.a0.b1, &frobC2[2])
	z.a0.b2.mulByFe(&x.a0.b2, &frobC2[4])
	z.a1.b0.mulByFe(&x.a1.b0, &frobC2[1])
	z.a1.b1.mulByFe(&x.a1.b1, &frobC2[3])
	z.a1.b2.mulByFe(&x.a1.b2, &frobC2[5])
}

// fp4Square computes (c0 + c1·s)² in Fp4 = Fp2[s]/(s² − ξ): the building
// block of Granger–Scott cyclotomic squaring (lazily reduced on ADX).
func fp4Square(d0, d1, c0, c1 *fe2) {
	if useADX {
		fp4SquareADX(d0, d1, c0, c1)
		return
	}
	fp4SquareGeneric(d0, d1, c0, c1)
}

func fp4SquareGeneric(d0, d1, c0, c1 *fe2) {
	var t0, t1, t2 fe2
	t0.square(c0)
	t1.square(c1)
	t2.mulByNonResidue(&t1)
	d0.add(&t2, &t0)
	t2.add(c0, c1)
	t2.square(&t2)
	t2.sub(&t2, &t0)
	d1.sub(&t2, &t1)
}

// cyclotomicSquare sets z = x² for x in the cyclotomic subgroup
// (x^{(p⁶−1)(p²+1)} = something the easy final exponentiation produced):
// 9 fe2 multiplications against a generic square's 18 (Granger–Scott 2010).
func (z *fe12) cyclotomicSquare(x *fe12) {
	var t0, t1, t2, t3, t4, t5 fe2
	fp4Square(&t0, &t1, &x.a0.b0, &x.a1.b1)
	fp4Square(&t2, &t3, &x.a1.b0, &x.a0.b2)
	fp4Square(&t4, &t5, &x.a0.b1, &x.a1.b2)
	t5.mulByNonResidue(&t5)

	// z.a0 components: 3(t) − 2(x)
	var u fe2
	u.sub(&t0, &x.a0.b0)
	u.double(&u)
	z.a0.b0.add(&u, &t0)
	u.sub(&t2, &x.a0.b1)
	u.double(&u)
	z.a0.b1.add(&u, &t2)
	u.sub(&t4, &x.a0.b2)
	u.double(&u)
	z.a0.b2.add(&u, &t4)

	// z.a1 components: 3(t) + 2(x)
	u.add(&t5, &x.a1.b0)
	u.double(&u)
	z.a1.b0.add(&u, &t5)
	u.add(&t1, &x.a1.b1)
	u.double(&u)
	z.a1.b1.add(&u, &t1)
	u.add(&t3, &x.a1.b2)
	u.double(&u)
	z.a1.b2.add(&u, &t3)
}

// blsX is |x| = 0xd201000000010000, the absolute value of the BLS12-381
// curve parameter (x itself is negative).
const blsX uint64 = 0xd201000000010000

// blsXBitLen is the bit length of |x|.
const blsXBitLen = 64

// expByX sets z = x^t where t is the (negative) curve parameter, valid only
// for cyclotomic-subgroup inputs: square-and-multiply over |x| with
// cyclotomic squarings, then conjugate for the sign.
func (z *fe12) expByX(x *fe12) {
	out := *x // top bit of |x| consumed by starting at the base
	for i := blsXBitLen - 2; i >= 0; i-- {
		out.cyclotomicSquare(&out)
		if blsX>>uint(i)&1 == 1 {
			out.mul(&out, x)
		}
	}
	out.conj(&out) // x < 0
	*z = out
}
