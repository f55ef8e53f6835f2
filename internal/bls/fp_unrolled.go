package bls

// fp_unrolled.go holds the field multiplier's dispatch and its portable
// kernels. feMul and feSquare call the ADX assembly kernel
// (fp_mul_amd64.s) when the CPU has BMI2 and ADX, and otherwise the
// straight-line Go code here, feMulGeneric/feSquareGeneric, which
// replaced the looped CIOS/SOS kernels (feMulLoop/feSquareLoop, now
// differential oracles in fp_unrolled_test.go). The Go compiler turns
// bits.Mul64 into MULQ and the additions into one serial ADC chain; it
// emits neither MULX nor ADCX/ADOX, which is why the assembly exists.
//
// feMulGeneric uses the "no-carry" CIOS variant: because the top word of
// p (0x1a0111ea397fe69a < 2^61) leaves three spare bits, each of the six
// interleaved Montgomery rounds keeps its running state in exactly six
// words plus two carry words — no seventh accumulator limb and no final
// carry ripple. The variant is standard for moduli whose top word is
// below 2^63−1 (gnark-crypto's generic mul, the kilic generated code).
// The bound argument for this repo's wider contract (x may be any 384-bit
// value, y < p, as feFromBytes and feReduceWide require) is:
//
//	t' = (t + x_i·y + m·p) / 2^64  <  t/2^64 + 2p
//
// so from t = 0 every round stays below 2p+1 < 2^382.3; the top word of
// each round's state is under 2^62.3, and the closing madd3 of a round —
// m·p₅ + carries with p₅ < 2^61 — cannot overflow its 128-bit result.
// The final state is < 2p and needs one final subtraction of p.
//
// Every kernel ends that subtraction in a select, not a branch: a CMOV
// in the assembly, a borrow-derived mask here. No kernel branches on
// limb data, so public and secret operands share them. (A branching tail
// predicts well — p/R ≈ 0.1 — and was ≈ 7 % faster in Go; off ADX hosts
// that is the price of one kernel for every caller.) The add/sub kernels
// (fp_limb.go) are masked too: their borrow is a coin flip, which no
// predictor learns.

import "math/bits"

// q0..q5 are the limbs of p as constants, so the unrolled chains fold them
// into immediates instead of loading pLimbs each use. checkUnrolledConsts
// (fp_unrolled_test.go) pins them against pLimbs.
const (
	q0 = 0xb9feffffffffaaab
	q1 = 0x1eabfffeb153ffff
	q2 = 0x6730d2a0f6b0f624
	q3 = 0x64774b84f38512bf
	q4 = 0x4b1ba7b6434bacd7
	q5 = 0x1a0111ea397fe69a
)

// madd0 returns the high word of a·b + c.
func madd0(a, b, c uint64) (hi uint64) {
	var carry uint64
	hi, lo := bits.Mul64(a, b)
	_, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd1 returns a·b + c as (hi, lo).
func madd1(a, b, c uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd2 returns a·b + c + d as (hi, lo).
func madd2(a, b, c, d uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	return
}

// madd3 returns a·b + c + d + e·2^64 as (hi, lo).
func madd3(a, b, c, d, e uint64) (hi, lo uint64) {
	var carry uint64
	hi, lo = bits.Mul64(a, b)
	c, carry = bits.Add64(c, d, 0)
	hi, _ = bits.Add64(hi, 0, carry)
	lo, carry = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, e, carry)
	return
}

// feMul sets z = x·y·R⁻¹ mod p (Montgomery multiplication). x may be any
// 384-bit value; y must be < p; the result is fully reduced. Neither
// kernel branches on limb data, so secret operands take this path too.
func feMul(z, x, y *fe) {
	if useADX {
		feMulADX(z, x, y)
		return
	}
	feMulGeneric(z, x, y)
}

// feSquare sets z = x²·R⁻¹ mod p; x must be < p. The assembly kernel
// squares as x·x.
func feSquare(z, x *fe) {
	if useADX {
		feMulADX(z, x, x)
		return
	}
	feSquareGeneric(z, x)
}

// feMulGeneric is feMul in Go: six unrolled no-carry CIOS rounds and a
// masked final subtraction. Differential oracle: feMulLoop.
func feMulGeneric(z, x, y *fe) {
	var t0, t1, t2, t3, t4, t5 uint64
	var c0, c1, c2 uint64

	{ // round 0
		v := x[0]
		c1, c0 = bits.Mul64(v, y[0])
		m := c0 * montInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd1(v, y[1], c1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd1(v, y[2], c1)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd1(v, y[3], c1)
		c2, t2 = madd2(m, q3, c2, c0)
		c1, c0 = madd1(v, y[4], c1)
		c2, t3 = madd2(m, q4, c2, c0)
		c1, c0 = madd1(v, y[5], c1)
		t5, t4 = madd3(m, q5, c0, c2, c1)
	}
	{ // round 1
		v := x[1]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * montInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		c2, t2 = madd2(m, q3, c2, c0)
		c1, c0 = madd2(v, y[4], c1, t4)
		c2, t3 = madd2(m, q4, c2, c0)
		c1, c0 = madd2(v, y[5], c1, t5)
		t5, t4 = madd3(m, q5, c0, c2, c1)
	}
	{ // round 2
		v := x[2]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * montInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		c2, t2 = madd2(m, q3, c2, c0)
		c1, c0 = madd2(v, y[4], c1, t4)
		c2, t3 = madd2(m, q4, c2, c0)
		c1, c0 = madd2(v, y[5], c1, t5)
		t5, t4 = madd3(m, q5, c0, c2, c1)
	}
	{ // round 3
		v := x[3]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * montInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		c2, t2 = madd2(m, q3, c2, c0)
		c1, c0 = madd2(v, y[4], c1, t4)
		c2, t3 = madd2(m, q4, c2, c0)
		c1, c0 = madd2(v, y[5], c1, t5)
		t5, t4 = madd3(m, q5, c0, c2, c1)
	}
	{ // round 4
		v := x[4]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * montInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		c2, t2 = madd2(m, q3, c2, c0)
		c1, c0 = madd2(v, y[4], c1, t4)
		c2, t3 = madd2(m, q4, c2, c0)
		c1, c0 = madd2(v, y[5], c1, t5)
		t5, t4 = madd3(m, q5, c0, c2, c1)
	}
	{ // round 5
		v := x[5]
		c1, c0 = madd1(v, y[0], t0)
		m := c0 * montInv
		c2 = madd0(m, q0, c0)
		c1, c0 = madd2(v, y[1], c1, t1)
		c2, t0 = madd2(m, q1, c2, c0)
		c1, c0 = madd2(v, y[2], c1, t2)
		c2, t1 = madd2(m, q2, c2, c0)
		c1, c0 = madd2(v, y[3], c1, t3)
		c2, t2 = madd2(m, q3, c2, c0)
		c1, c0 = madd2(v, y[4], c1, t4)
		c2, t3 = madd2(m, q4, c2, c0)
		c1, c0 = madd2(v, y[5], c1, t5)
		t5, t4 = madd3(m, q5, c0, c2, c1)
	}

	// Result < 2p: one masked subtraction.
	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	r4, b := bits.Sub64(t4, q4, b)
	r5, b := bits.Sub64(t5, q5, b)
	m := -b // all-ones ⇔ t < p ⇔ keep t
	z[0] = r0 ^ (m & (r0 ^ t0))
	z[1] = r1 ^ (m & (r1 ^ t1))
	z[2] = r2 ^ (m & (r2 ^ t2))
	z[3] = r3 ^ (m & (r3 ^ t3))
	z[4] = r4 ^ (m & (r4 ^ t4))
	z[5] = r5 ^ (m & (r5 ^ t5))
}

// feSquareGeneric is feSquare in Go: unrolled SOS squaring (15 cross
// products computed once and doubled by a one-bit shift, 6 diagonal
// squares folded in), a 6-round Montgomery reduction of the 12-word
// square with a deferred one-bit carry instead of the loop version's
// ripple, and the masked subtraction. x must be < p. Differential
// oracle: feSquareLoop.
func feSquareGeneric(z, x *fe) {
	var t0, t1, t2, t3, t4, t5, t6, t7, t8, t9, t10, t11 uint64
	var c, cr uint64

	// Off-diagonal partial products t[i+j] += x[i]·x[j], i < j.
	c, t1 = bits.Mul64(x[0], x[1])
	c, t2 = madd1(x[0], x[2], c)
	c, t3 = madd1(x[0], x[3], c)
	c, t4 = madd1(x[0], x[4], c)
	c, t5 = madd1(x[0], x[5], c)
	t6 = c

	c, t3 = madd1(x[1], x[2], t3)
	c, t4 = madd2(x[1], x[3], c, t4)
	c, t5 = madd2(x[1], x[4], c, t5)
	c, t6 = madd2(x[1], x[5], c, t6)
	t7 = c

	c, t5 = madd1(x[2], x[3], t5)
	c, t6 = madd2(x[2], x[4], c, t6)
	c, t7 = madd2(x[2], x[5], c, t7)
	t8 = c

	c, t7 = madd1(x[3], x[4], t7)
	c, t8 = madd2(x[3], x[5], c, t8)
	t9 = c

	c, t9 = madd1(x[4], x[5], t9)
	t10 = c

	// Double the cross products (x < 2^381, so the shift fits 12 words).
	t11 = t10 >> 63
	t10 = t10<<1 | t9>>63
	t9 = t9<<1 | t8>>63
	t8 = t8<<1 | t7>>63
	t7 = t7<<1 | t6>>63
	t6 = t6<<1 | t5>>63
	t5 = t5<<1 | t4>>63
	t4 = t4<<1 | t3>>63
	t3 = t3<<1 | t2>>63
	t2 = t2<<1 | t1>>63
	t1 = t1 << 1

	// Fold in the diagonal squares x[i]² at t[2i], t[2i+1].
	var hi, lo uint64
	hi, t0 = bits.Mul64(x[0], x[0])
	t1, c = bits.Add64(t1, hi, 0)
	hi, lo = bits.Mul64(x[1], x[1])
	t2, cr = bits.Add64(t2, lo, c)
	hi += cr
	t3, c = bits.Add64(t3, hi, 0)
	hi, lo = bits.Mul64(x[2], x[2])
	t4, cr = bits.Add64(t4, lo, c)
	hi += cr
	t5, c = bits.Add64(t5, hi, 0)
	hi, lo = bits.Mul64(x[3], x[3])
	t6, cr = bits.Add64(t6, lo, c)
	hi += cr
	t7, c = bits.Add64(t7, hi, 0)
	hi, lo = bits.Mul64(x[4], x[4])
	t8, cr = bits.Add64(t8, lo, c)
	hi += cr
	t9, c = bits.Add64(t9, hi, 0)
	hi, lo = bits.Mul64(x[5], x[5])
	t10, cr = bits.Add64(t10, lo, c)
	hi += cr
	t11, _ = bits.Add64(t11, hi, 0) // x² < p² < 2^762: no carry out

	// Montgomery reduction of the 12-word square, six unrolled rounds.
	// Round i folds out t[i]; its one-bit carry out of t[i+6] belongs at
	// position i+7, which is exactly where round i+1's closing addition
	// lands — so the carry rides the cr flag into the next round instead
	// of rippling through t[i+7..11] as the loop version does. The final
	// round's carry would sit at position 12; the bound in feSquareLoop's
	// comment (running value < 2^766) shows it is always zero.
	cr = 0
	{ // round 0
		m := t0 * montInv
		c = madd0(m, q0, t0)
		c, t1 = madd2(m, q1, c, t1)
		c, t2 = madd2(m, q2, c, t2)
		c, t3 = madd2(m, q3, c, t3)
		c, t4 = madd2(m, q4, c, t4)
		c, t5 = madd2(m, q5, c, t5)
		t6, cr = bits.Add64(t6, c, 0)
	}
	{ // round 1
		m := t1 * montInv
		c = madd0(m, q0, t1)
		c, t2 = madd2(m, q1, c, t2)
		c, t3 = madd2(m, q2, c, t3)
		c, t4 = madd2(m, q3, c, t4)
		c, t5 = madd2(m, q4, c, t5)
		c, t6 = madd2(m, q5, c, t6)
		t7, cr = bits.Add64(t7, c, cr)
	}
	{ // round 2
		m := t2 * montInv
		c = madd0(m, q0, t2)
		c, t3 = madd2(m, q1, c, t3)
		c, t4 = madd2(m, q2, c, t4)
		c, t5 = madd2(m, q3, c, t5)
		c, t6 = madd2(m, q4, c, t6)
		c, t7 = madd2(m, q5, c, t7)
		t8, cr = bits.Add64(t8, c, cr)
	}
	{ // round 3
		m := t3 * montInv
		c = madd0(m, q0, t3)
		c, t4 = madd2(m, q1, c, t4)
		c, t5 = madd2(m, q2, c, t5)
		c, t6 = madd2(m, q3, c, t6)
		c, t7 = madd2(m, q4, c, t7)
		c, t8 = madd2(m, q5, c, t8)
		t9, cr = bits.Add64(t9, c, cr)
	}
	{ // round 4
		m := t4 * montInv
		c = madd0(m, q0, t4)
		c, t5 = madd2(m, q1, c, t5)
		c, t6 = madd2(m, q2, c, t6)
		c, t7 = madd2(m, q3, c, t7)
		c, t8 = madd2(m, q4, c, t8)
		c, t9 = madd2(m, q5, c, t9)
		t10, cr = bits.Add64(t10, c, cr)
	}
	{ // round 5
		m := t5 * montInv
		c = madd0(m, q0, t5)
		c, t6 = madd2(m, q1, c, t6)
		c, t7 = madd2(m, q2, c, t7)
		c, t8 = madd2(m, q3, c, t8)
		c, t9 = madd2(m, q4, c, t9)
		c, t10 = madd2(m, q5, c, t10)
		t11, _ = bits.Add64(t11, c, cr)
	}

	// Result < 2p: one masked subtraction.
	r0, b := bits.Sub64(t6, q0, 0)
	r1, b := bits.Sub64(t7, q1, b)
	r2, b := bits.Sub64(t8, q2, b)
	r3, b := bits.Sub64(t9, q3, b)
	r4, b := bits.Sub64(t10, q4, b)
	r5, b := bits.Sub64(t11, q5, b)
	m := -b // all-ones ⇔ t < p ⇔ keep t
	z[0] = r0 ^ (m & (r0 ^ t6))
	z[1] = r1 ^ (m & (r1 ^ t7))
	z[2] = r2 ^ (m & (r2 ^ t8))
	z[3] = r3 ^ (m & (r3 ^ t9))
	z[4] = r4 ^ (m & (r4 ^ t10))
	z[5] = r5 ^ (m & (r5 ^ t11))
}
