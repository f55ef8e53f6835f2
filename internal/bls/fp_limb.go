package bls

// fp_limb.go implements the BLS12-381 base field Fp with a fixed 6×uint64
// Montgomery representation. Every hot-path operation (add, sub, mul,
// square, square root; the inverse is in fp_inv.go) runs on raw limbs with
// math/bits carry chains — no math/big, no allocation. Elements are kept
// in Montgomery form (a·R mod p, R = 2^384) from creation to serialization.

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// fe is an Fp element in Montgomery form, little-endian limbs.
type fe [6]uint64

// pLimbs is the base-field modulus
// p = 0x1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab.
var pLimbs = fe{
	0xb9feffffffffaaab, 0x1eabfffeb153ffff, 0x6730d2a0f6b0f624,
	0x64774b84f38512bf, 0x4b1ba7b6434bacd7, 0x1a0111ea397fe69a,
}

// montInv = -p⁻¹ mod 2^64, the Montgomery reduction factor.
const montInv uint64 = 0x89f3fffcfffcfffd

// feR is R = 2^384 mod p: the Montgomery form of 1.
var feR = fe{
	0x760900000002fffd, 0xebf4000bc40c0002, 0x5f48985753c758ba,
	0x77ce585370525745, 0x5c071a97a256ec6d, 0x15f65ec3fa80e493,
}

// feR2 is R² mod p, used to convert into Montgomery form.
var feR2 = fe{
	0xf4df1f341c341746, 0x0a76e6a609d104f1, 0x8de5476c4c95b6d5,
	0x67eb88a9939d83c0, 0x9a793e85b519952d, 0x11988fe592cae3aa,
}

// feR3 = R³ mod p, for reducing 512-bit hash outputs and in feInv. Derived
// at init so the only trusted constants are p, montInv, R, and R².
var feR3 fe

// feRawOne is the plain integer 1 (NOT Montgomery form); multiplying by it
// with feMul performs a Montgomery reduction out of Montgomery form.
var feRawOne = fe{1, 0, 0, 0, 0, 0}

// Fixed exponents, derived from p at init with pure limb arithmetic.
var (
	pMinus3Over4   [6]uint64  // (p−3)/4, the square roots' exponent (pm34Chain)
	pMinus1Over2   [6]uint64  // (p−1)/2, for sign ordering
	pMinus1Over6   [6]uint64  // (p−1)/6, for Frobenius constants
	pSqMinus1Over6 [12]uint64 // (p²−1)/6, for Frobenius² constants
)

// initFieldConstants derives the exponent tables above. It must run before
// any other file's package initialization touches them — Go runs init()
// functions in file-name order and variable initializers earlier still, so
// every consumer calls this explicitly (it is idempotent) instead of
// relying on ordering.
var fieldConstantsOnce sync.Once

func initFieldConstants() { fieldConstantsOnce.Do(deriveFieldConstants) }

func init() { initFieldConstants() }

func deriveFieldConstants() {
	feMul(&feR3, &feR2, &feR2)

	// (p−3)/4: p ≡ 3 (mod 4), so subtracting 3 borrows nothing from
	// limb 1, and shifting right twice drops two zero bits.
	copy(pMinus3Over4[:], pLimbs[:])
	pMinus3Over4[0] -= 3
	shiftRight1(pMinus3Over4[:])
	shiftRight1(pMinus3Over4[:])
	pm34Chain = slidingWindowChain(pMinus3Over4[:], chainWindow)

	// (p−1)/6 by long division; p ≡ 1 (mod 6) so the remainder is 0.
	var pm1 [6]uint64
	copy(pm1[:], pLimbs[:])
	pm1[0]-- // p[0] is odd, no borrow

	// (p−1)/2 for the Euler criterion and lexicographic sign ordering.
	copy(pMinus1Over2[:], pm1[:])
	shiftRight1(pMinus1Over2[:])
	if divBySmall(pMinus1Over6[:], pm1[:], 6) != 0 {
		panic("bls: p-1 not divisible by 6")
	}

	// (p²−1)/6 over 12 limbs.
	var psq [12]uint64
	mulWide(psq[:], pLimbs[:], pLimbs[:])
	psq[0]-- // p² is odd
	if divBySmall(pSqMinus1Over6[:], psq[:], 6) != 0 {
		panic("bls: p²-1 not divisible by 6")
	}
}

// shiftRight1 shifts a little-endian limb vector right by one bit.
func shiftRight1(x []uint64) {
	for i := 0; i < len(x); i++ {
		x[i] >>= 1
		if i+1 < len(x) {
			x[i] |= x[i+1] << 63
		}
	}
}

// divBySmall divides a little-endian limb vector by a small divisor,
// writing the quotient to q and returning the remainder.
func divBySmall(q, x []uint64, d uint64) uint64 {
	var rem uint64
	for i := len(x) - 1; i >= 0; i-- {
		q[i], rem = bits.Div64(rem, x[i], d)
	}
	return rem
}

// mulWide computes the full 2n-limb product of two n-limb vectors.
func mulWide(out, x, y []uint64) {
	for i := range out {
		out[i] = 0
	}
	for i := range x {
		var carry uint64
		for j := range y {
			hi, lo := bits.Mul64(x[i], y[j])
			var c uint64
			lo, c = bits.Add64(lo, out[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			out[i+j] = lo
			carry = hi
		}
		out[i+len(y)] += carry
	}
}

// --- core Montgomery arithmetic ---

// feAdd and feSub are the only add/sub kernels, for public and secret
// operands alike: each ends in a mask built from the final borrow instead
// of a branch on it. Unlike the multiplier's tail (taken one time in ten,
// see fp_unrolled.go), the borrow here is a coin flip on real data, so a
// branch would mispredict about half the time under the pairing. q0..q5
// (fp_unrolled.go) keep p in immediates.

// feAdd sets z = x + y mod p: the raw sum, one trial subtraction of p,
// and a masked select between the two.
func feAdd(z, x, y *fe) {
	var c, b uint64
	t0, c := bits.Add64(x[0], y[0], 0)
	t1, c := bits.Add64(x[1], y[1], c)
	t2, c := bits.Add64(x[2], y[2], c)
	t3, c := bits.Add64(x[3], y[3], c)
	t4, c := bits.Add64(x[4], y[4], c)
	t5, _ := bits.Add64(x[5], y[5], c) // x+y < 2p < 2^384: no carry out
	r0, b := bits.Sub64(t0, q0, 0)
	r1, b := bits.Sub64(t1, q1, b)
	r2, b := bits.Sub64(t2, q2, b)
	r3, b := bits.Sub64(t3, q3, b)
	r4, b := bits.Sub64(t4, q4, b)
	r5, b := bits.Sub64(t5, q5, b)
	m := -b // all-ones ⇔ x+y < p ⇔ keep the raw sum
	z[0] = r0 ^ (m & (r0 ^ t0))
	z[1] = r1 ^ (m & (r1 ^ t1))
	z[2] = r2 ^ (m & (r2 ^ t2))
	z[3] = r3 ^ (m & (r3 ^ t3))
	z[4] = r4 ^ (m & (r4 ^ t4))
	z[5] = r5 ^ (m & (r5 ^ t5))
}

// feDouble sets z = 2x mod p.
func feDouble(z, x *fe) { feAdd(z, x, x) }

// feSub sets z = x − y mod p: the borrow of the raw difference becomes a
// mask and p&mask is always added back.
func feSub(z, x, y *fe) {
	var b, c uint64
	t0, b := bits.Sub64(x[0], y[0], 0)
	t1, b := bits.Sub64(x[1], y[1], b)
	t2, b := bits.Sub64(x[2], y[2], b)
	t3, b := bits.Sub64(x[3], y[3], b)
	t4, b := bits.Sub64(x[4], y[4], b)
	t5, b := bits.Sub64(x[5], y[5], b)
	m := -b
	z[0], c = bits.Add64(t0, q0&m, 0)
	z[1], c = bits.Add64(t1, q1&m, c)
	z[2], c = bits.Add64(t2, q2&m, c)
	z[3], c = bits.Add64(t3, q3&m, c)
	z[4], c = bits.Add64(t4, q4&m, c)
	z[5], _ = bits.Add64(t5, q5&m, c)
}

// feNeg sets z = −x mod p without branching on x, which may be secret
// (fe2.inv, fe2.conj, the keygen comb's batch inversion): it computes
// p − x and masks the result to zero when x = 0.
func feNeg(z, x *fe) {
	zm := ctMask(feIsZeroMask(x))
	var b uint64
	var n fe
	n[0], b = bits.Sub64(pLimbs[0], x[0], 0)
	n[1], b = bits.Sub64(pLimbs[1], x[1], b)
	n[2], b = bits.Sub64(pLimbs[2], x[2], b)
	n[3], b = bits.Sub64(pLimbs[3], x[3], b)
	n[4], b = bits.Sub64(pLimbs[4], x[4], b)
	n[5], _ = bits.Sub64(pLimbs[5], x[5], b) // x < p: no final borrow
	z[0] = n[0] &^ zm
	z[1] = n[1] &^ zm
	z[2] = n[2] &^ zm
	z[3] = n[3] &^ zm
	z[4] = n[4] &^ zm
	z[5] = n[5] &^ zm
}

func (x *fe) isZero() bool {
	return x[0]|x[1]|x[2]|x[3]|x[4]|x[5] == 0
}

func (x *fe) equal(y *fe) bool { return *x == *y }

func (x *fe) isOne() bool { return *x == feR }

// --- the (p−3)/4 power ---

// Every square root in the package raises to the public exponent
// (p−3)/4, as p ≡ 3 (mod 4): sqrtRatio3mod4 (RFC 9380 Appendix F.2.1.2),
// feSqrt as x^((p+1)/4) = x^((p−3)/4)·x, and fe2Sqrt (g2compress.go). One
// fixed addition chain serves them all: pm34Chain, a left-to-right
// sliding window of width chainWindow over the exponent's 379 bits (228
// set), built once at init. It costs 375 squarings and 66 products after
// a table of the 16 odd powers x¹ … x³¹ (one squaring, 15 products): 457
// in all, where square-and-multiply spends 378 + 227 = 605. feExpPM34 and
// fe2.expPM34 run it on Fp and Fp2.

// chainStep squares the accumulator sq times, then multiplies it by the
// table entry x^(2·mul+1) unless mul is −1.
type chainStep struct{ sq, mul int }

// chainWindow is pm34Chain's window width; 4 and 6 cost 461 and 463.
const chainWindow = 5

// pm34Chain is the chain for (p−3)/4. Its first step's entry is the
// accumulator's start.
var pm34Chain []chainStep

// slidingWindowChain returns the sliding-window chain of width w for a
// nonzero little-endian limb exponent e: each window starts at a set bit
// and ends at the lowest set bit among its next w, so its value is odd.
func slidingWindowChain(e []uint64, w int) []chainStep {
	bit := func(i int) int { return int(e[i/64] >> (i % 64) & 1) }
	top := 64*len(e) - 1
	for bit(top) == 0 {
		top--
	}
	var steps []chainStep
	sq := 0
	for i := top; i >= 0; {
		if bit(i) == 0 {
			sq, i = sq+1, i-1
			continue
		}
		j := max(i-w+1, 0)
		for bit(j) == 0 {
			j++
		}
		v := 0
		for k := i; k >= j; k-- {
			v = v<<1 | bit(k)
		}
		steps = append(steps, chainStep{sq + i - j + 1, v >> 1})
		sq, i = 0, j-1
	}
	if sq > 0 {
		steps = append(steps, chainStep{sq, -1})
	}
	steps[0].sq = 0
	return steps
}

// feExpPM34 sets z = x^((p−3)/4) by pm34Chain.
func feExpPM34(z, x *fe) {
	var tbl [1 << (chainWindow - 1)]fe
	var x2 fe
	tbl[0] = *x
	feSquare(&x2, x)
	for i := 1; i < len(tbl); i++ {
		feMul(&tbl[i], &tbl[i-1], &x2)
	}
	acc := tbl[pm34Chain[0].mul]
	for _, s := range pm34Chain[1:] {
		for i := 0; i < s.sq; i++ {
			feSquare(&acc, &acc)
		}
		if s.mul >= 0 {
			feMul(&acc, &acc, &tbl[s.mul])
		}
	}
	*z = acc
}

// feSqrt sets z to a square root of x (z = x^{(p+1)/4}, valid as p ≡ 3 mod
// 4) and reports whether x is a quadratic residue.
func feSqrt(z, x *fe) bool {
	var c, sq fe
	feExpPM34(&c, x)
	feMul(&c, &c, x)
	feSquare(&sq, &c)
	if !sq.equal(x) {
		return false
	}
	*z = c
	return true
}

// --- conversions ---

// feFromUint64 sets z to the Montgomery form of a small integer.
func feFromUint64(z *fe, v uint64) {
	t := fe{v}
	feMul(z, &t, &feR2)
}

// feFromBytes decodes a 48-byte big-endian value into Montgomery form. The
// value must be < p (callers range-check); no reduction is performed beyond
// the Montgomery conversion.
func feFromBytes(z *fe, b []byte) {
	var t fe
	for i := 0; i < 6; i++ {
		t[i] = binary.BigEndian.Uint64(b[(5-i)*8 : (6-i)*8])
	}
	feMul(z, &t, &feR2)
}

// feToBytes encodes z (Montgomery form) as 48 big-endian bytes.
func feToBytes(b []byte, z *fe) {
	var t fe
	feMul(&t, z, &feRawOne) // out of Montgomery form
	for i := 0; i < 6; i++ {
		binary.BigEndian.PutUint64(b[(5-i)*8:(6-i)*8], t[i])
	}
}

// feValidBytes reports whether the 48-byte big-endian value is < p.
func feValidBytes(b []byte) bool {
	var t fe
	for i := 0; i < 6; i++ {
		t[i] = binary.BigEndian.Uint64(b[(5-i)*8 : (6-i)*8])
	}
	var borrow uint64
	for i := 0; i < 6; i++ {
		_, borrow = bits.Sub64(t[i], pLimbs[i], borrow)
	}
	return borrow != 0 // t − p borrows ⇔ t < p
}

// feReduceWide reduces a 64-byte big-endian value modulo p into Montgomery
// form: v = hi·2^384 + lo ⇒ v·R = lo·R + hi·R·2^384, computed as
// mont(lo, R²) + mont(hi, R³).
func feReduceWide(z *fe, b []byte) {
	if len(b) != 64 {
		panic("bls: feReduceWide wants 64 bytes")
	}
	var limbs [8]uint64
	for i := 0; i < 8; i++ {
		limbs[i] = binary.BigEndian.Uint64(b[(7-i)*8 : (8-i)*8])
	}
	var lo, hi, t fe
	copy(lo[:], limbs[:6])
	hi[0], hi[1] = limbs[6], limbs[7]
	feMul(z, &lo, &feR2) // lo·R mod p (feMul tolerates lo ≥ p)
	feMul(&t, &hi, &feR3)
	feAdd(z, z, &t)
}
