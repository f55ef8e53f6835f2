package bls

// scalarmul_ct.go is the constant-time G1 scalar multiplication behind
// signing and possession proofs: a GLV walk (glv.go) that splits the
// secret scalar as k ≡ k₁ + k₂·λ (mod r), recodes both halves into 32
// signed 4-bit digits, and runs one chain of 124 doublings with two
// mixed additions per window, one from a table of d·P and one from a
// table of d·φ(P), d = 1..8. Every product, sum and difference is one of
// the branch-free field kernels all callers share (feMul/feSquare,
// feAdd/feSub); each window's entry is fetched by scanning the whole
// table with feCMov (no secret-indexed load) and its sign applied by a
// masked y-negation; the two reachable exceptional cases — accumulator
// still at infinity, digit zero — are resolved by masked selects instead
// of branches. The point is public (a hashed message); only the scalar is
// secret, so the tables are built with the fast variable-time arithmetic.
//
// The walk never meets an exceptional addition (acc = ±Q, neither at
// infinity), which the branch-free formulas could not handle. Write a_i,
// b_i for the signed digits of k₁, k₂ and A_w = Σ_{i≥w} a_i·16^(i−w),
// B_w likewise, so A_0 = k₁, B_0 = k₂ and A_w = 16·A_(w+1) + a_w. Since
// |a_i| ≤ 8, k₁ and 16^w·A_w differ by less than 16^w·8/15, so |A_w| and
// |B_w| are at most z²/2 for every w (glv.go bounds |k₁|, |k₂| by z²/2).
// Window w adds
//
//	a_w·P     to acc = (16·A_(w+1) + 16·B_(w+1)·λ)·P, then
//	b_w·φ(P)  to acc = (A_w + 16·B_(w+1)·λ)·P,
//
// and acc = ±Q puts (16·A_(w+1) ∓ a_w, 16·B_(w+1)), respectively
// (A_w, 16·B_(w+1) ∓ b_w), in the lattice L = {(a, b) : a + b·λ ≡ 0 (mod r)}.
// As 16·A_(w+1) = A_w − a_w and 16·B_(w+1) = B_w − b_w, both coordinates
// are at most z²/2 + 16. Every nonzero vector of L has a coordinate of at
// least z² − 1: a vector m·(z²−1, −1) + n·(1, z²) of L's basis has
// |a| = |m|(z²−1) if n = 0 and |b| = |n|·z² if m = 0; otherwise, if
// |b| = |n·z² − m| < z² − 1, then |m| > (|n|−1)·z² + 1 ≥ 1, hence
// |m| ≥ 2 and |a| ≥ |m|(z²−1) − |n| ≥ z² − 1. As z²/2 + 16 < z² − 1, the
// vector is zero. For the first addition that means B_(w+1) = 0 and
// 16·A_(w+1) = ±a_w, so A_(w+1) = a_w = 0 (|a_w| < 16): acc at infinity
// and digit zero, both masked. For the second it means A_w = 0 and
// 16·B_(w+1) = ±b_w, the same. Doublings are exception-free outright:
// g1DoubleCT keeps infinity at Z = 0, and no point of odd order has
// y = 0. scalarmul_ct_test.go runs the walk against the old 4-bit window
// walk (its oracle) on the split's boundary scalars and on scalars built
// to bring a final-window addition as close to its addend as L allows.

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
// k-dependent branch or memory access: the GLV walk of the file comment.
// It is the multiplication of every signature and possession proof.
//
//spin:secret k
func (p G1) MulSecret(k *Scalar) G1 {
	if p.IsInfinity() {
		return p
	}
	glvInit()
	// Tables d·P and d·φ(P), d = 1..8, in affine form. The point is
	// public: the fast variable-time Add builds them, the eight entries
	// share one field inversion (g1NormalizeBatch) — the only one
	// MulSecret performs — and φ scales x alone, so both tables share y.
	var tbl [8]G1
	tbl[0] = p
	for d := 1; d < 8; d++ {
		tbl[d] = tbl[d-1].Add(p)
	}
	g1NormalizeBatch(tbl[:])
	var xs, phiXs, ys [8]fe
	for d := range tbl {
		xs[d], ys[d] = tbl[d].x, tbl[d].y
		feMul(&phiXs[d], &tbl[d].x, &glvBeta)
	}

	k1, k2 := glvSplit(k)
	abs1, neg1 := glvRecode(k1)
	abs2, neg2 := glvRecode(k2)
	acc := g1Infinity()
	for w := glvDigits - 1; w >= 0; w-- {
		if w != glvDigits-1 { // public loop counter, not a secret branch
			acc = acc.g1DoubleCT()
			acc = acc.g1DoubleCT()
			acc = acc.g1DoubleCT()
			acc = acc.g1DoubleCT()
		}
		acc = g1AddDigitCT(&acc, &xs, &ys, abs1[w], neg1[w])
		acc = g1AddDigitCT(&acc, &phiXs, &ys, abs2[w], neg2[w])
	}
	return acc
}

// g1AddDigitCT returns acc + (−1)^neg·abs·Q, where (xs[j], ys[j]) is the
// affine (j+1)·Q and abs ∈ [0, 8]: every entry is scanned, the match kept
// by feCMov, and its y negated by a mask.
func g1AddDigitCT(acc *G1, xs, ys *[8]fe, abs, neg uint64) G1 {
	var qx, qy fe
	for j := 0; j < 8; j++ {
		m := ct64Eq(abs, uint64(j+1))
		feCMov(&qx, &xs[j], m)
		feCMov(&qy, &ys[j], m)
	}
	feCNeg(&qy, &qy, neg)
	return g1AddMixedCT(acc, &qx, &qy, ctNonzero64(abs))
}
