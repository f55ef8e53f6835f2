package bls

// msm.go implements the multi-point machinery: Montgomery-trick batch
// inversion, batch Jacobian→affine normalization (one shared inversion for
// any number of points), and batch-affine summation trees.
//
// The summation trees are what bls.AggregatePublicKeys and
// bls.AggregateSignatures run on: summing n points pairwise in affine
// coordinates costs 1 squaring + 2 multiplications + a 3-multiplication
// share of one inversion per addition — under half the field work of a
// general Jacobian addition — because each round of n/2 independent
// additions shares a single field inversion across all its slope
// denominators.

// --- batch inversion ---

// feBatchInv inverts every nonzero element of vals in place with
// Montgomery's trick: 3(n−1) multiplications and a single feInv. Zero
// elements stay zero (matching feInv's 0 ↦ 0 convention).
func feBatchInv(vals []fe) {
	n := len(vals)
	if n == 0 {
		return
	}
	prefix := make([]fe, n)
	acc := feR // 1
	for i := range vals {
		prefix[i] = acc
		if !vals[i].isZero() {
			feMul(&acc, &acc, &vals[i])
		}
	}
	var inv fe
	feInv(&inv, &acc)
	for i := n - 1; i >= 0; i-- {
		if vals[i].isZero() {
			continue
		}
		var t fe
		feMul(&t, &inv, &prefix[i])
		feMul(&inv, &inv, &vals[i])
		vals[i] = t
	}
}

// fe2BatchInv inverts every nonzero element of vals in place. The batch
// runs over the Fp norms (x⁻¹ = x̄/(c0² + c1²)), so the whole slice costs
// one base-field inversion plus 7 base multiplications per element.
func fe2BatchInv(vals []fe2) {
	n := len(vals)
	if n == 0 {
		return
	}
	norms := make([]fe, n)
	for i := range vals {
		var t0, t1 fe
		feSquare(&t0, &vals[i].c0)
		feSquare(&t1, &vals[i].c1)
		feAdd(&norms[i], &t0, &t1)
	}
	feBatchInv(norms)
	for i := range vals {
		var t fe2
		t.conj(&vals[i])
		t.mulByFe(&t, &norms[i])
		vals[i] = t
	}
}

// --- batch normalization ---

// g1NormalizeBatch rewrites every finite point to Z = 1 (affine
// coordinates in place) using one shared inversion — the helper behind
// table precomputation, MSM input preparation, and batch serialization.
func g1NormalizeBatch(ps []G1) {
	zs := make([]fe, len(ps))
	for i := range ps {
		zs[i] = ps[i].z // zero (infinity) passes through feBatchInv as zero
	}
	feBatchInv(zs)
	for i := range ps {
		if ps[i].IsInfinity() || ps[i].z.equal(&feR) {
			continue
		}
		var zi2, zi3 fe
		feSquare(&zi2, &zs[i])
		feMul(&zi3, &zi2, &zs[i])
		feMul(&ps[i].x, &ps[i].x, &zi2)
		feMul(&ps[i].y, &ps[i].y, &zi3)
		ps[i].z = feR
	}
}

// g2NormalizeBatch is g1NormalizeBatch on the twist.
func g2NormalizeBatch(ps []G2) {
	zs := make([]fe2, len(ps))
	for i := range ps {
		zs[i] = ps[i].z
	}
	fe2BatchInv(zs)
	var one fe2
	one.setOne()
	for i := range ps {
		if ps[i].IsInfinity() || ps[i].z.isOne() {
			continue
		}
		var zi2, zi3 fe2
		zi2.square(&zs[i])
		zi3.mul(&zi2, &zs[i])
		ps[i].x.mul(&ps[i].x, &zi2)
		ps[i].y.mul(&ps[i].y, &zi3)
		ps[i].z = one
	}
}

// --- batch-affine summation ---

// g2SumTail is the round-size threshold below which the pairwise tree
// hands off to chained mixed additions: with only a handful of additions
// left per round, the per-round feInv dominates the batch's savings.
const g2SumTail = 16

// g2Sum returns Σ ps[i]. Points are batch-normalized once (a no-op for
// deserialized rosters, which are already affine), then summed as a
// pairwise tree: each round performs ⌊n/2⌋ independent affine additions
// whose slope denominators share one batched inversion, run over the Fp
// norms so the whole round costs one feInv. Exceptional cases (equal x:
// doubling via the same batch, or cancellation to infinity) are handled
// inside the round. Rounds below g2SumTail finish with Jacobian mixed
// additions.
func g2Sum(ps []G2) G2 {
	xs, ys := make([]fe2, 0, len(ps)), make([]fe2, 0, len(ps))
	var pending []G2 // non-affine inputs, normalized in one batch
	for i := range ps {
		switch {
		case ps[i].IsInfinity():
		case ps[i].z.isOne():
			xs = append(xs, ps[i].x)
			ys = append(ys, ps[i].y)
		default:
			pending = append(pending, ps[i])
		}
	}
	if len(pending) > 0 {
		g2NormalizeBatch(pending)
		for _, p := range pending {
			xs = append(xs, p.x)
			ys = append(ys, p.y)
		}
	}
	n := len(xs)
	// Shared per-round scratch: slope denominators, their Fp norms, and
	// the prefix products of the batched norm inversion.
	dens := make([]fe2, n/2)
	norms := make([]fe, n/2)
	prefix := make([]fe, n/2)
	dead := make([]bool, n/2)
	for n > g2SumTail {
		half := n / 2
		for i := 0; i < half; i++ {
			a, b := 2*i, 2*i+1
			den := &dens[i]
			den.sub(&xs[b], &xs[a])
			dead[i] = false
			if den.isZero() {
				if ys[a].equal(&ys[b]) && !ys[a].isZero() {
					den.double(&ys[a]) // tangent: denominator 2y
				} else {
					dead[i] = true // P + (−P) = ∞ (or a 2-torsion double)
				}
			}
		}
		// Batched inversion of the denominators through their norms:
		// den⁻¹ = conj(den)·N(den)⁻¹ with all N(den)⁻¹ from one feInv.
		// Fused inline rather than calling fe2BatchInv: the generic
		// helper takes two extra passes and an allocation per round,
		// which is measurable at this call frequency (a tree round runs
		// once per level for every aggregation).
		acc := feR
		for i := 0; i < half; i++ {
			var t0, t1 fe
			feSquare(&t0, &dens[i].c0)
			feSquare(&t1, &dens[i].c1)
			feAdd(&norms[i], &t0, &t1)
			prefix[i] = acc
			if !dead[i] {
				feMul(&acc, &acc, &norms[i])
			}
		}
		var inv fe
		feInv(&inv, &acc)
		for i := half - 1; i >= 0; i-- {
			if dead[i] {
				continue
			}
			var t fe
			feMul(&t, &inv, &prefix[i])
			feMul(&inv, &inv, &norms[i])
			norms[i] = t // N(den)⁻¹
		}
		w := 0
		for i := 0; i < half; i++ {
			if dead[i] {
				continue
			}
			a, b := 2*i, 2*i+1
			var lam, x3, y3, t fe2
			if xs[a].equal(&xs[b]) {
				// λ = 3x²/(2y)
				lam.square(&xs[a])
				t.double(&lam)
				lam.add(&lam, &t)
			} else {
				lam.sub(&ys[b], &ys[a])
			}
			t.conj(&dens[i])
			lam.mul(&lam, &t)
			lam.mulByFe(&lam, &norms[i]) // λ = num·conj(den)·N(den)⁻¹
			x3.square(&lam)
			x3.sub(&x3, &xs[a])
			x3.sub(&x3, &xs[b])
			y3.sub(&xs[a], &x3)
			y3.mul(&y3, &lam)
			y3.sub(&y3, &ys[a])
			xs[w], ys[w] = x3, y3
			w++
		}
		if n%2 == 1 {
			xs[w], ys[w] = xs[n-1], ys[n-1]
			w++
		}
		n = w
	}
	acc := g2Infinity()
	for i := 0; i < n; i++ {
		acc = acc.addMixed(&xs[i], &ys[i])
	}
	return acc
}

// g1Sum is g2Sum on G1; the denominators live in Fp, so the batch inverts
// them directly.
func g1Sum(ps []G1) G1 {
	xs, ys := make([]fe, 0, len(ps)), make([]fe, 0, len(ps))
	var pending []G1
	for i := range ps {
		switch {
		case ps[i].IsInfinity():
		case ps[i].z.equal(&feR):
			xs = append(xs, ps[i].x)
			ys = append(ys, ps[i].y)
		default:
			pending = append(pending, ps[i])
		}
	}
	if len(pending) > 0 {
		g1NormalizeBatch(pending)
		for _, p := range pending {
			xs = append(xs, p.x)
			ys = append(ys, p.y)
		}
	}
	n := len(xs)
	dens := make([]fe, n/2)
	prefix := make([]fe, n/2)
	dead := make([]bool, n/2)
	for n > g2SumTail {
		half := n / 2
		for i := 0; i < half; i++ {
			a, b := 2*i, 2*i+1
			feSub(&dens[i], &xs[b], &xs[a])
			dead[i] = false
			if dens[i].isZero() {
				if ys[a].equal(&ys[b]) && !ys[a].isZero() {
					feDouble(&dens[i], &ys[a])
				} else {
					dead[i] = true
				}
			}
		}
		acc := feR
		for i := 0; i < half; i++ {
			prefix[i] = acc
			if !dead[i] {
				feMul(&acc, &acc, &dens[i])
			}
		}
		var inv fe
		feInv(&inv, &acc)
		for i := half - 1; i >= 0; i-- {
			if dead[i] {
				continue
			}
			var t fe
			feMul(&t, &inv, &prefix[i])
			feMul(&inv, &inv, &dens[i])
			dens[i] = t
		}
		w := 0
		for i := 0; i < half; i++ {
			if dead[i] {
				continue
			}
			a, b := 2*i, 2*i+1
			var lam, x3, y3, t fe
			if xs[a].equal(&xs[b]) {
				feSquare(&lam, &xs[a])
				feDouble(&t, &lam)
				feAdd(&lam, &lam, &t)
			} else {
				feSub(&lam, &ys[b], &ys[a])
			}
			feMul(&lam, &lam, &dens[i])
			feSquare(&x3, &lam)
			feSub(&x3, &x3, &xs[a])
			feSub(&x3, &x3, &xs[b])
			feSub(&y3, &xs[a], &x3)
			feMul(&y3, &y3, &lam)
			feSub(&y3, &y3, &ys[a])
			xs[w], ys[w] = x3, y3
			w++
		}
		if n%2 == 1 {
			xs[w], ys[w] = xs[n-1], ys[n-1]
			w++
		}
		n = w
	}
	acc := g1Infinity()
	for i := 0; i < n; i++ {
		acc = acc.addMixed(&xs[i], &ys[i])
	}
	return acc
}
