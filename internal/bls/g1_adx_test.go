package bls

// g1_adx_test.go holds the G1 group-law kernels and the dedicated
// squaring (fp_mul_amd64.s) to the Go bodies they stand in for on ADX
// hosts, as tower_adx_test.go does for the tower: on a ring of benchRing
// random Jacobian points, on points with one coordinate or every
// coordinate among the edges 0, 1 and p−1 (raw and Montgomery), on
// infinity on either side and Z = 0 with arbitrary X and Y, on P = Q
// (also under different Z) and P = −Q, and with the output aliased with
// an input. It also runs the group law's public wrappers on the points of
// small order of E(Fp), where the additions meet their exceptional case,
// against double-and-add, and checks that every one of them still fails
// InSubgroup.

import (
	"math/big"
	"testing"
)

// g1Cofactor is #E(Fp)/r = (|z| + 1)²/3 = 3 · 11² · 10177² · 859267² ·
// 52437899².
var g1Cofactor = mustBig("396c8c005555e1568c00aaab0000aaab")

// randG1Jacobian returns a random subgroup point with a random Z.
func randG1Jacobian(tb testing.TB) G1 {
	return g1Rescale(G1Generator().mulRaw(randScalar(tb)), randFe(tb))
}

// g1Rescale returns (l²X, l³Y, lZ), the same point as p for l ≠ 0.
func g1Rescale(p G1, l fe) G1 {
	var l2, l3 fe
	feSquare(&l2, &l)
	feMul(&l3, &l2, &l)
	feMul(&p.x, &p.x, &l2)
	feMul(&p.y, &p.y, &l3)
	feMul(&p.z, &p.z, &l)
	return p
}

func g1Coords(p *G1) []*fe { return []*fe{&p.x, &p.y, &p.z} }

// checkG1Kernels compares g1DoubleADX, g1AddADX and g1AddMixedADX (with
// q's x and y as the affine operand) with their Go bodies on p and q, into
// a fresh r and with r = p, r = q and p = q; and feSquareADX with the
// multiplier on x·x for every coordinate, in place too.
func checkG1Kernels(t *testing.T, p, q G1) {
	t.Helper()
	type run struct {
		name      string
		got, want G1
	}
	var runs []run
	var want, got G1
	g1DoubleGeneric(&want, &p)
	g1DoubleADX(&got, &p)
	inPlace := p
	g1DoubleADX(&inPlace, &inPlace)
	runs = append(runs, run{"double", got, want}, run{"double, r = p", inPlace, want})

	g1AddGeneric(&want, &p, &q)
	g1AddADX(&got, &p, &q)
	rp, rq := p, q
	g1AddADX(&rp, &rp, &q)
	g1AddADX(&rq, &p, &rq)
	runs = append(runs, run{"add", got, want}, run{"add, r = p", rp, want}, run{"add, r = q", rq, want})
	g1AddGeneric(&want, &p, &p)
	g1AddADX(&got, &p, &p)
	all := p
	g1AddADX(&all, &all, &all)
	runs = append(runs, run{"add, p = q", got, want}, run{"add, r = p = q", all, want})

	g1AddMixedGeneric(&want, &p, &q.x, &q.y)
	g1AddMixedADX(&got, &p, &q.x, &q.y)
	rp = p
	g1AddMixedADX(&rp, &rp, &q.x, &q.y)
	runs = append(runs, run{"addMixed", got, want}, run{"addMixed, r = p", rp, want})
	g1AddMixedGeneric(&want, &p, &p.x, &p.y)
	rp = p
	g1AddMixedADX(&rp, &rp, &rp.x, &rp.y)
	runs = append(runs, run{"addMixed, r = p, q = (p.x, p.y)", rp, want})

	for _, r := range runs {
		if r.got != r.want {
			t.Fatalf("%s(%x, %x): asm %x, Go %x", r.name, p, q, r.got, r.want)
		}
	}
	for _, x := range append(g1Coords(&p), g1Coords(&q)...) {
		var sq, mul fe
		feSquareADX(&sq, x)
		feMulADX(&mul, x, x)
		in := *x
		feSquareADX(&in, &in)
		if sq != mul || in != mul {
			t.Fatalf("square(%x): asm %x (in place %x), x·x %x", *x, sq, in, mul)
		}
	}
}

// g1OfOrder returns a point of order ℓ for a prime ℓ dividing the
// cofactor: for the first curve point Q, by x = 7, 8, …, whose ℓ-part
// R = [#E/ℓᵏ]Q (ℓᵏ the power of ℓ in #E) is not the identity, R or [ℓ]R,
// whichever has order ℓ.
func g1OfOrder(t *testing.T, l int64) G1 {
	t.Helper()
	ell := big.NewInt(l)
	m := new(big.Int).Mul(g1Cofactor, rOrder)
	for new(big.Int).Mod(m, ell).Sign() == 0 {
		m.Div(m, ell)
	}
	x := big.NewInt(7)
	for i := 0; i < 200; i++ {
		rhs := fpAdd(fpMul(fpMul(x, x), x), big4)
		y := new(big.Int).Exp(rhs, sqrtExp, pMod)
		if fpMul(y, y).Cmp(rhs) == 0 {
			var fx, fy fe
			feFromBig(&fx, x)
			feFromBig(&fy, y)
			if r := g1FromAffine(fx, fy).mulRaw(m); !r.IsInfinity() {
				if lr := r.mulRaw(ell); !lr.IsInfinity() {
					r = lr
				}
				if !r.mulRaw(ell).IsInfinity() {
					t.Fatalf("no point of order %d from x = %v", l, x)
				}
				return r
			}
		}
		x.Add(x, big.NewInt(1))
	}
	t.Fatalf("no point of order %d found", l)
	return G1{}
}

func TestG1KernelsMatchGoBodies(t *testing.T) {
	if !useADX {
		t.Skip("no BMI2/ADX: the group law runs its Go bodies")
	}
	ps := ring(t, randG1Jacobian)
	for i := range ps {
		p, q := ps[i], ps[(i+1)&(benchRing-1)]
		checkG1Kernels(t, p, q)
		checkG1Kernels(t, p, p.Neg())
		checkG1Kernels(t, p, g1Rescale(p, ps[(i+5)&(benchRing-1)].x))
		ax, ay, _ := p.affine()
		checkG1Kernels(t, q, g1FromAffine(ax, ay))
		checkG1Kernels(t, g1FromAffine(ax, ay), q)
	}
	// Infinity on either side, and Z = 0 under arbitrary X and Y.
	zeroZ := ps[3]
	zeroZ.z = fe{}
	for _, inf := range []G1{{}, zeroZ} {
		checkG1Kernels(t, inf, ps[0])
		checkG1Kernels(t, ps[0], inf)
		checkG1Kernels(t, inf, inf)
	}
	// Every coordinate among the edges, alone and all at once.
	edges := edgeSet(ps[0], g1Coords)
	for i, p := range edges {
		for j, q := range edges {
			if (i+j)%3 == 0 {
				checkG1Kernels(t, p, q)
			}
		}
	}
}

// TestG1SmallOrderPoints runs the group law where the additions meet
// their exceptional cases: on the order-3 points (0, ±2) and on points of
// order 11, 10177, 859267 and 52437899, the primes of the cofactor. The
// wrappers must agree with double-and-add (mulRaw), the kernels with their
// Go bodies, and no such point, nor its sum with a subgroup point, may
// pass InSubgroup.
func TestG1SmallOrderPoints(t *testing.T) {
	var two fe
	feFromUint64(&two, 2)
	order3 := g1FromAffine(fe{}, two)
	if !order3.OnCurve() || !order3.mulRaw(big.NewInt(3)).IsInfinity() {
		t.Fatal("(0, 2) is not a point of order 3")
	}
	small := []G1{order3, order3.Neg()}
	for _, l := range []int64{3, 11, 10177, 859267, 52437899} {
		small = append(small, g1OfOrder(t, l))
	}
	g := G1Generator()
	for i, p := range small {
		if p.InSubgroup() || p.Add(g).InSubgroup() {
			t.Errorf("point %d of small order passes InSubgroup", i)
		}
		ax, ay, _ := p.affine()
		for k, c := range []struct {
			name      string
			got, want G1
		}{
			{"2P", p.double(), p.mulRaw(big.NewInt(2))},
			{"P + P", p.Add(p), p.mulRaw(big.NewInt(2))},
			{"P + P affine", p.addMixed(&ax, &ay), p.mulRaw(big.NewInt(2))},
			{"P + 2P", p.Add(p.double()), p.mulRaw(big.NewInt(3))},
			{"2P + P affine", p.double().addMixed(&ax, &ay), p.mulRaw(big.NewInt(3))},
			{"P − P", p.Add(p.Neg()), G1{}},
			{"−P + P affine", p.Neg().addMixed(&ax, &ay), G1{}},
			{"|z|·P", p.mulZAbs(), p.mulRaw(new(big.Int).SetUint64(blsX))},
			{"|z|·P affine", g1FromAffine(ax, ay).mulZAbs(), p.mulRaw(new(big.Int).SetUint64(blsX))},
		} {
			if !c.got.Equal(c.want) {
				t.Errorf("point %d, case %d (%s): %x, want %x", i, k, c.name, c.got, c.want)
			}
		}
		if useADX {
			checkG1Kernels(t, p, p)
			checkG1Kernels(t, p, p.Neg())
			checkG1Kernels(t, p, g)
			checkG1Kernels(t, g1FromAffine(ax, ay), p.double())
		}
	}
}

// FuzzG1Kernels feeds checkG1Kernels coordinates read as raw 48-byte
// big-endian integers reduced mod p: p from coordinates 0–2, q from 3–5
// (its x and y are also the mixed addition's affine operand).
func FuzzG1Kernels(f *testing.F) {
	if !useADX {
		f.Skip("no BMI2/ADX: the group law runs its Go bodies")
	}
	for _, e := range feEdges() {
		b := rawBig(&e).FillBytes(make([]byte, fpSize))
		var seed []byte
		for i := 0; i < 6; i++ {
			seed = append(seed, b...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var c [6]fe
		for i := range c {
			lo := i * fpSize
			if lo >= len(b) {
				break
			}
			chunk := b[lo:min(lo+fpSize, len(b))]
			c[i] = rawFe(new(big.Int).Mod(new(big.Int).SetBytes(chunk), pMod))
		}
		checkG1Kernels(t, G1{c[0], c[1], c[2]}, G1{c[3], c[4], c[5]})
	})
}

// TestClearCofactorMatchesHEff pins clearCofactorG1 (|z|·P + P) to
// double-and-add by h_eff = 0xd201000000010001 on points outside the
// subgroup, and checks that it lands in it.
func TestClearCofactorMatchesHEff(t *testing.T) {
	hEff := new(big.Int).SetUint64(0xd201000000010001)
	q := offSubgroupG1(t)
	for i := int64(1); i < 8; i++ {
		p := q.mulRaw(big.NewInt(i))
		got := clearCofactorG1(p)
		if !got.Equal(p.mulRaw(hEff)) {
			t.Fatalf("×%d: clearCofactorG1 disagrees with h_eff·P", i)
		}
		if !got.InSubgroup() {
			t.Fatalf("×%d: clearCofactorG1 left the point outside the subgroup", i)
		}
	}
}
