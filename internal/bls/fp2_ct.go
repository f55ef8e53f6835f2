package bls

// fp2_ct.go lifts the fp_ct.go masked multiplier to Fp2: the same
// Karatsuba multiplication and complex squaring as fp2.go, but with every
// base-field product a masked-tail kernel and no data-dependent branch
// anywhere (additions and subtractions are the branch-free feAdd/feSub
// every caller uses). These back the constant-time G2 fixed-base comb
// (g2_ct.go) that key generation runs on. All intermediate values stay
// fully reduced, so feMulCT's contract (y < p) holds throughout.

// fe2CMov sets z = x when cond = 1 and leaves z unchanged when cond = 0.
func fe2CMov(z, x *fe2, cond uint64) {
	feCMov(&z.c0, &x.c0, cond)
	feCMov(&z.c1, &x.c1, cond)
}

// fe2IsZeroMask returns 1 iff x = 0, without branching.
func fe2IsZeroMask(x *fe2) uint64 {
	return feIsZeroMask(&x.c0) & feIsZeroMask(&x.c1)
}

// fe2MulCT sets z = x·y by Karatsuba over the masked base kernels: the
// three products and the cross-term recombination match fp2.go's mul
// bit for bit (fp2_ct_test.go proves this differentially).
func fe2MulCT(z, x, y *fe2) {
	var t0, t1, t2, t3 fe
	feMulCT(&t0, &x.c0, &y.c0)
	feMulCT(&t1, &x.c1, &y.c1)
	feAdd(&t2, &x.c0, &x.c1)
	feAdd(&t3, &y.c0, &y.c1)
	feSub(&z.c0, &t0, &t1)
	feMulCT(&t2, &t2, &t3)
	feSub(&t2, &t2, &t0)
	feSub(&z.c1, &t2, &t1)
}

// fe2SquareCT sets z = x² by complex squaring on the masked kernels.
func fe2SquareCT(z, x *fe2) {
	var t0, t1, t2 fe
	feAdd(&t0, &x.c0, &x.c1)
	feSub(&t1, &x.c0, &x.c1)
	feDouble(&t2, &x.c0)
	feMulCT(&z.c0, &t0, &t1)
	feMulCT(&z.c1, &t2, &x.c1)
}
