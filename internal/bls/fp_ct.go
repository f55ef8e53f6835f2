package bls

// fp_ct.go is the constant-time twin of the field kernels in fp_limb.go.
// The fast kernels end in a data-dependent conditional subtraction
// (`if borrow == 0 { take reduced } else { take raw }`) — fine for public
// log digests, a timing side channel when the operands derive from
// secrets. The *CT variants below replace every such branch with a
// masked select built on feCMov: same inputs, bit-identical outputs
// (fp_ct_test.go proves this differentially), no secret-dependent
// instruction or memory access. Secret-scalar paths (G1.MulSecret,
// behind SecretKey.Sign) run exclusively on these kernels.

import "math/bits"

// ct64Eq returns 1 iff a == b, without branching.
func ct64Eq(a, b uint64) uint64 { return 1 ^ ctNonzero64(a^b) }

// feReduceCT sets z = t − p if t ≥ p, else z = t, by masked select
// (the constant-time form of feReduce). Aliasing z == t is allowed.
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

// feAddCT sets z = x + y mod p with a masked final reduction.
func feAddCT(z, x, y *fe) {
	var t fe
	var c uint64
	t[0], c = bits.Add64(x[0], y[0], 0)
	t[1], c = bits.Add64(x[1], y[1], c)
	t[2], c = bits.Add64(x[2], y[2], c)
	t[3], c = bits.Add64(x[3], y[3], c)
	t[4], c = bits.Add64(x[4], y[4], c)
	t[5], _ = bits.Add64(x[5], y[5], c) // x+y < 2p < 2^384: no carry out
	feReduceCT(z, &t)
}

// feDoubleCT sets z = 2x mod p.
func feDoubleCT(z, x *fe) { feAddCT(z, x, x) }

// feSubCT sets z = x − y mod p: the borrow of the raw subtraction becomes
// a mask and the add-back of p always executes (against p&mask), instead
// of the borrow-dependent branch in feSub.
func feSubCT(z, x, y *fe) {
	var t fe
	var b uint64
	t[0], b = bits.Sub64(x[0], y[0], 0)
	t[1], b = bits.Sub64(x[1], y[1], b)
	t[2], b = bits.Sub64(x[2], y[2], b)
	t[3], b = bits.Sub64(x[3], y[3], b)
	t[4], b = bits.Sub64(x[4], y[4], b)
	t[5], b = bits.Sub64(x[5], y[5], b)
	m := ctMask(b)
	var c uint64
	t[0], c = bits.Add64(t[0], pLimbs[0]&m, 0)
	t[1], c = bits.Add64(t[1], pLimbs[1]&m, c)
	t[2], c = bits.Add64(t[2], pLimbs[2]&m, c)
	t[3], c = bits.Add64(t[3], pLimbs[3]&m, c)
	t[4], c = bits.Add64(t[4], pLimbs[4]&m, c)
	t[5], _ = bits.Add64(t[5], pLimbs[5]&m, c)
	*z = t
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
