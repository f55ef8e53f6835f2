package bls

// g2_ct.go is the constant-time G2 fixed-base comb behind key generation:
// the 255-bit scalar is cut into 64 four-bit windows and a table stores
// j·2^{4i}·G for every window i and digit j (64 × 15 affine points,
// 180 KiB, built on first use with one batched inversion). The window
// entry is fetched by scanning all 15 table points with fe2CMov (no
// secret-indexed load), and every product, sum and difference is fp2.go's
// fe2 arithmetic, which is branch-free over the branch-free base kernels.
// Because the table stores digit·2^{4w}·G there are no doublings at all —
// the comb is 64 complete mixed additions, which also makes it ~2× faster
// than a doubling CT window walk of MulSecret's shape would be on G2.
//
// The branch-free mixed addition is exception-free on this path. After
// windows 0..w−1 the accumulator holds a·G with a = k mod 2^{4w} and the
// incoming term is d·2^{4w}·G, d ∈ [1,15], with s = a + d·2^{4w} ≤ k < r.
// Cancellation (acc = −q) needs s ≡ 0 (mod r) with 0 < s < r: impossible.
// Doubling (acc = q) needs a ≡ d·2^{4w} (mod r); writing d·2^{4w} = a + jr
// for some j ≥ 0, j = 0 forces a ≥ 2^{4w} > a, and j ≥ 1 forces
// s = 2·d·2^{4w} − jr ≥ r, contradicting s < r. The two reachable
// exceptions — accumulator still at infinity, window digit zero — are
// resolved by masked selects, exactly as in g1AddMixedCT.

import "sync"

// fixedWindows is the number of 4-bit windows in a 256-bit scalar.
const fixedWindows = 64

var (
	g2GenTableOnce sync.Once
	g2GenTable     [][]G2 // [window][digit−1] = digit·2^{4·window}·G
)

func g2GenTableInit() {
	g2GenTableOnce.Do(func() {
		flat := make([]G2, 0, fixedWindows*15)
		base := G2Generator()
		for w := 0; w < fixedWindows; w++ {
			entry := base
			for j := 1; j <= 15; j++ {
				flat = append(flat, entry)
				if j < 15 {
					entry = entry.Add(base)
				}
			}
			base = entry.Add(base) // 16·(2^{4w}·G) = 2^{4(w+1)}·G
		}
		g2NormalizeBatch(flat)
		g2GenTable = make([][]G2, fixedWindows)
		for w := 0; w < fixedWindows; w++ {
			g2GenTable[w] = flat[w*15 : (w+1)*15]
		}
	})
}

// fe2CMov sets z = x when cond = 1 and leaves z unchanged when cond = 0.
func fe2CMov(z, x *fe2, cond uint64) {
	feCMov(&z.c0, &x.c0, cond)
	feCMov(&z.c1, &x.c1, cond)
}

// fe2IsZeroMask returns 1 iff x = 0, without branching.
func fe2IsZeroMask(x *fe2) uint64 {
	return feIsZeroMask(&x.c0) & feIsZeroMask(&x.c1)
}

// g2CMov sets dst = src when cond = 1 and leaves dst unchanged when
// cond = 0.
func g2CMov(dst, src *G2, cond uint64) {
	fe2CMov(&dst.x, &src.x, cond)
	fe2CMov(&dst.y, &src.y, cond)
	fe2CMov(&dst.z, &src.z, cond)
}

// g2AddMixedCT returns p + (qx, qy) with branch-free madd-2007-bl
// formulas plus masked fixups for the reachable exceptions: qValid = 0
// (the window digit was zero) returns p, and p at infinity returns the
// affine point. Callers must guarantee the doubling/cancellation cases
// cannot occur (see the file comment).
func g2AddMixedCT(p *G2, qx, qy *fe2, qValid uint64) G2 {
	var z1z1, u2, s2, h, r fe2
	z1z1.square(&p.z)
	u2.mul(qx, &z1z1)
	s2.mul(qy, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &p.x)
	r.sub(&s2, &p.y)
	var hh, i, j, v fe2
	hh.square(&h)
	i.double(&hh)
	i.double(&i)
	j.mul(&h, &i)
	r.double(&r)
	v.mul(&p.x, &i)
	var out G2
	out.x.square(&r)
	out.x.sub(&out.x, &j)
	out.x.sub(&out.x, &v)
	out.x.sub(&out.x, &v)
	out.y.sub(&v, &out.x)
	out.y.mul(&out.y, &r)
	var t fe2
	t.mul(&p.y, &j)
	t.double(&t)
	out.y.sub(&out.y, &t)
	out.z.add(&p.z, &h)
	out.z.square(&out.z)
	out.z.sub(&out.z, &z1z1)
	out.z.sub(&out.z, &hh)
	// p at infinity: the sum is q itself (as a Z = 1 Jacobian point).
	qJac := g2FromAffine(*qx, *qy)
	g2CMov(&out, &qJac, fe2IsZeroMask(&p.z))
	// Digit zero: the sum is p (covers the both-infinite case too).
	g2CMov(&out, p, 1^qValid)
	return out
}

// G2MulGenSecret returns k·G for the G2 generator without any k-dependent
// branch or memory access — the key-generation path, where k is the
// freshly sampled signing key. Differentially bit-identical to
// double-and-add (g2_ct_test.go).
//
//spin:secret k
func G2MulGenSecret(k *Scalar) G2 {
	g2GenTableInit()
	acc := g2Infinity()
	for w := 0; w < fixedWindows; w++ {
		// Window w covers scalar bits [4w, 4w+4) of limb w/16.
		digit := k.l[w>>4] >> (4 * (w & 15)) & 0x0f
		// Constant-time table scan: touch every entry, keep the match.
		var qx, qy fe2
		for d := uint64(1); d <= 15; d++ {
			m := ct64Eq(digit, d)
			fe2CMov(&qx, &g2GenTable[w][d-1].x, m)
			fe2CMov(&qy, &g2GenTable[w][d-1].y, m)
		}
		acc = g2AddMixedCT(&acc, &qx, &qy, ctNonzero64(digit))
	}
	return acc
}
