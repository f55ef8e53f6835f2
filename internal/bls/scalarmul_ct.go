package bls

// scalarmul_ct.go is the constant-time G1 scalar multiplication behind
// SecretKey.Sign: a 4-bit fixed-window walk over the scalar where every
// product, sum and difference is one of the branch-free field kernels all
// callers share (feMul/feSquare, feAdd/feSub), the window entry is
// fetched by scanning the whole table with feCMov (no secret-indexed
// load), and the two reachable exceptional cases — accumulator still at
// infinity, window digit zero — are resolved by masked selects instead
// of branches. The point is public (a hashed message); only the scalar
// is secret, so the window table itself is built with the fast
// variable-time arithmetic.
//
// The branch-free Jacobian formulas are exception-free here because the
// scalar is reduced mod r and the base point has odd prime order r: the
// running prefix of consumed windows never collides with ±digit (the
// doubling/cancellation cases of madd-2007-bl), and y = 0 points do not
// exist on the curve. scalarmul_ct_test.go drives the boundary scalars
// (0, 1, small digits, r−1, leading-zero windows) differentially
// against the GLV path.

import "math/big"

// g1CMov sets dst = src when cond = 1 and leaves dst unchanged when
// cond = 0.
func g1CMov(dst, src *G1, cond uint64) {
	feCMov(&dst.x, &src.x, cond)
	feCMov(&dst.y, &src.y, cond)
	feCMov(&dst.z, &src.z, cond)
}

// g1DoubleCT returns 2p with branch-free dbl-2009-l formulas: an
// infinity input (Z = 0) yields Z3 = 2YZ = 0, so the identity is
// preserved without the early return of double().
func (p G1) g1DoubleCT() G1 {
	var a, b, c, d, e, f fe
	feSquare(&a, &p.x)
	feSquare(&b, &p.y)
	feSquare(&c, &b)
	feAdd(&d, &p.x, &b)
	feSquare(&d, &d)
	feSub(&d, &d, &a)
	feSub(&d, &d, &c)
	feDouble(&d, &d)
	feDouble(&e, &a)
	feAdd(&e, &e, &a)
	feSquare(&f, &e)
	var out G1
	feSub(&out.x, &f, &d)
	feSub(&out.x, &out.x, &d)
	feSub(&out.y, &d, &out.x)
	feMul(&out.y, &out.y, &e)
	feDouble(&c, &c)
	feDouble(&c, &c)
	feDouble(&c, &c)
	feSub(&out.y, &out.y, &c)
	feMul(&out.z, &p.y, &p.z)
	feDouble(&out.z, &out.z)
	return out
}

// g1AddMixedCT returns p + (qx, qy) with branch-free madd-2007-bl
// formulas plus masked fixups for the reachable exceptions: qValid = 0
// (the window digit was zero) returns p, and p at infinity returns the
// affine point. Callers must guarantee the doubling/cancellation cases
// cannot occur (see the file comment).
func g1AddMixedCT(p *G1, qx, qy *fe, qValid uint64) G1 {
	var z1z1, u2, s2, h, r fe
	feSquare(&z1z1, &p.z)
	feMul(&u2, qx, &z1z1)
	feMul(&s2, qy, &p.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &p.x)
	feSub(&r, &s2, &p.y)
	var hh, i, j, v fe
	feSquare(&hh, &h)
	feDouble(&i, &hh)
	feDouble(&i, &i)
	feMul(&j, &h, &i)
	feDouble(&r, &r)
	feMul(&v, &p.x, &i)
	var out G1
	feSquare(&out.x, &r)
	feSub(&out.x, &out.x, &j)
	feSub(&out.x, &out.x, &v)
	feSub(&out.x, &out.x, &v)
	feSub(&out.y, &v, &out.x)
	feMul(&out.y, &out.y, &r)
	var t fe
	feMul(&t, &p.y, &j)
	feDouble(&t, &t)
	feSub(&out.y, &out.y, &t)
	feAdd(&out.z, &p.z, &h)
	feSquare(&out.z, &out.z)
	feSub(&out.z, &out.z, &z1z1)
	feSub(&out.z, &out.z, &hh)
	// p at infinity: the sum is q itself (as a Z = 1 Jacobian point).
	qJac := G1{x: *qx, y: *qy, z: feR}
	g1CMov(&out, &qJac, feIsZeroMask(&p.z))
	// Digit zero: the sum is p (covers the both-infinite case too).
	g1CMov(&out, p, 1^qValid)
	return out
}

// MulSecret returns k·p for p in the order-r subgroup without any
// k-dependent branch or memory access; use it whenever the scalar is
// secret (signing, possession proofs). k is expected in [0, r) — the
// scalars SecretKey carries — and out-of-range values are reduced with
// variable-time arithmetic before the constant-time walk.
//
//spin:secret k
func (p G1) MulSecret(k *big.Int) G1 {
	if p.IsInfinity() {
		return p
	}
	//spinlint:ignore ctsecret range guard reads only the public sign/bit-length bound of k
	if k.Sign() < 0 || k.Cmp(rOrder) >= 0 {
		//spinlint:ignore ctsecret out-of-range scalars are API misuse, reduced vartime by contract
		k = new(big.Int).Mod(k, rOrder)
	}
	var kb [32]byte
	//spinlint:ignore ctsecret FillBytes pads to a fixed 32-byte width; timing tracks the public limb count
	k.FillBytes(kb[:])

	// Window table d·P, d = 1..15, in affine form. The point is public:
	// the fast variable-time Add is fine here, and the 15 entries share
	// one field inversion (g1NormalizeBatch) — the only one MulSecret
	// performs.
	var tbl [15]G1
	tbl[0] = p
	for d := 1; d < 15; d++ {
		tbl[d] = tbl[d-1].Add(p)
	}
	g1NormalizeBatch(tbl[:])

	acc := g1Infinity()
	for w := 0; w < 64; w++ {
		if w != 0 { // public loop counter, not a secret branch
			acc = acc.g1DoubleCT()
			acc = acc.g1DoubleCT()
			acc = acc.g1DoubleCT()
			acc = acc.g1DoubleCT()
		}
		digit := uint64(kb[w>>1])
		if w&1 == 0 {
			digit >>= 4
		} else {
			digit &= 0x0f
		}
		// Constant-time table scan: touch every entry, keep the match.
		var qx, qy fe
		for d := uint64(1); d <= 15; d++ {
			m := ct64Eq(digit, d)
			feCMov(&qx, &tbl[d-1].x, m)
			feCMov(&qy, &tbl[d-1].y, m)
		}
		acc = g1AddMixedCT(&acc, &qx, &qy, ctNonzero64(digit))
	}
	return acc
}
