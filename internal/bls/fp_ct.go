package bls

// fp_ct.go holds the masked tail of the field multiplier for operands
// that derive from secrets. feMul/feSquare end in a data-dependent
// conditional subtraction (`if borrow == 0 { take reduced } else { take
// raw }`) — fine for public log digests, a timing side channel under a
// secret. feMulCT/feSquareCT run the same unrolled rounds and replace that
// branch with a masked select: same inputs, bit-identical outputs
// (fp_ct_test.go proves this differentially), no secret-dependent
// instruction or memory access. Add and subtract need no twin: feAdd and
// feSub (fp_limb.go) are masked for every caller. Secret-scalar paths
// (G1.MulSecret behind SecretKey.Sign, G2MulGenSecret behind key
// generation) multiply exclusively on these kernels.

import "math/bits"

// ct64Eq returns 1 iff a == b, without branching.
func ct64Eq(a, b uint64) uint64 { return 1 ^ ctNonzero64(a^b) }

// feReduceCT sets z = t − p if t ≥ p, else z = t, by masked select.
// Aliasing z == t is allowed.
func feReduceCT(z, t *fe) {
	var r fe
	var b uint64
	r[0], b = bits.Sub64(t[0], pLimbs[0], 0)
	r[1], b = bits.Sub64(t[1], pLimbs[1], b)
	r[2], b = bits.Sub64(t[2], pLimbs[2], b)
	r[3], b = bits.Sub64(t[3], pLimbs[3], b)
	r[4], b = bits.Sub64(t[4], pLimbs[4], b)
	r[5], b = bits.Sub64(t[5], pLimbs[5], b)
	m := ctMask(b) // all-ones ⇔ t < p ⇔ keep t
	for i := range z {
		z[i] = r[i] ^ (m & (r[i] ^ t[i]))
	}
}

// feMulCT is feMul for operands that derive from secrets: the same
// unrolled rounds (feMulRounds) with the final conditional subtraction
// replaced by a masked select. Same contract: x may be any 384-bit value,
// y must be < p, the result is fully reduced.
func feMulCT(z, x, y *fe) {
	t0, t1, t2, t3, t4, t5 := feMulRounds(x, y)
	feReduceCT(z, &fe{t0, t1, t2, t3, t4, t5})
}

// feSquareCT is feSquare with the masked tail; x must be < p.
func feSquareCT(z, x *fe) {
	t0, t1, t2, t3, t4, t5 := feSquareRounds(x)
	feReduceCT(z, &fe{t0, t1, t2, t3, t4, t5})
}
