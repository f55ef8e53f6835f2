package bls

// pairing_prepared_test.go holds the on-the-fly Miller loop the prepared
// loop replaced, with its unnormalised three-coefficient lines (ell,
// mulBy014), as the differential oracle, and the tests that a cached
// preparation never changes a verdict.

import (
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"math/bits"
	"testing"
)

// ell folds a line with three free coefficients, evaluated at the affine
// G1 point (px, py), into f: the line shape before normalisation.
func ell(f *fe12, coeff *[3]fe2, px, py *fe) {
	var c1, c4 fe2
	c1.mulByFe(&coeff[1], px)
	c4.mulByFe(&coeff[2], py)
	f.mulBy014(&coeff[0], &c1, &c4)
}

// mulBy014 multiplies z in place by the sparse element with Fp2
// coefficients c0 (slot 1), c1 (slot v), c4 (slot v·w) — the shape of an
// unnormalised line evaluation. 13 fe2 muls (5+3+5 across the sparse fe6
// products) instead of a full mul's 18.
func (z *fe12) mulBy014(c0, c1, c4 *fe2) {
	var a, b fe6
	a.mulBy01(&z.a0, c0, c1)
	b.mulBy1(&z.a1, c4)
	var d fe2
	d.add(c1, c4)
	var t fe6
	t.add(&z.a1, &z.a0)
	t.mulBy01(&t, c0, &d)
	t.sub(&t, &a)
	z.a1.sub(&t, &b)
	b.mulByNonResidue(&b)
	z.a0.add(&a, &b)
}

// mulBy1 sets z = x·(c1·v) (3 fe2 muls).
func (z *fe6) mulBy1(x *fe6, c1 *fe2) {
	var t0, t1, t2 fe2
	t0.mul(&x.b2, c1)
	t0.mulByNonResidue(&t0)
	t1.mul(&x.b0, c1)
	t2.mul(&x.b1, c1)
	z.b0, z.b1, z.b2 = t0, t1, t2
}

// millerLoopOnTheFly is the pre-preparation Miller loop: it steps a
// projective accumulator per pair inside the loop and evaluates each line
// as it is produced.
func millerLoopOnTheFly(pxs, pys []fe, qaffs [][2]fe2) fe12 {
	var f fe12
	f.setOne()
	n := len(qaffs)
	rs := make([]g2Proj, n)
	var one fe2
	one.setOne()
	for j := range qaffs {
		rs[j] = g2Proj{x: qaffs[j][0], y: qaffs[j][1], z: one}
	}
	var coeff [3]fe2
	for i := blsXBitLen - 2; i >= 0; i-- {
		f.square(&f)
		for j := 0; j < n; j++ {
			doublingStep(&coeff, &rs[j])
			ell(&f, &coeff, &pxs[j], &pys[j])
		}
		if blsX>>uint(i)&1 == 1 {
			for j := 0; j < n; j++ {
				additionStep(&coeff, &rs[j], &qaffs[j][0], &qaffs[j][1])
				ell(&f, &coeff, &pxs[j], &pys[j])
			}
		}
	}
	f.conj(&f)
	return f
}

// pairingProductOnTheFly is the oracle for pairingProduct: it drops pairs
// with a point at infinity and runs the on-the-fly loop over the rest.
func pairingProductOnTheFly(ps []G1, qs []G2) fe12 {
	var pxs, pys []fe
	var qaffs [][2]fe2
	for i := range ps {
		if ps[i].IsInfinity() || qs[i].IsInfinity() {
			continue
		}
		px, py, _ := ps[i].affine()
		qx, qy, _ := qs[i].affine()
		pxs = append(pxs, px)
		pys = append(pys, py)
		qaffs = append(qaffs, [2]fe2{qx, qy})
	}
	if len(qaffs) == 0 {
		var one fe12
		one.setOne()
		return one
	}
	return finalExp(millerLoopOnTheFly(pxs, pys, qaffs))
}

func TestMillerLinesCount(t *testing.T) {
	if want := (blsXBitLen - 1) + (bits.OnesCount64(blsX) - 1); millerLines != want {
		t.Fatalf("millerLines = %d, the loop over blsX emits %d", millerLines, want)
	}
}

func randomPair(t *testing.T) (G1, G2) {
	t.Helper()
	a, err := rand.Int(rand.Reader, rOrder)
	if err != nil {
		t.Fatal(err)
	}
	b, err := rand.Int(rand.Reader, rOrder)
	if err != nil {
		t.Fatal(err)
	}
	return G1Generator().Mul(a), G2Generator().Mul(b)
}

func TestPreparedMillerLoopMatchesOnTheFly(t *testing.T) {
	for n := 1; n <= 3; n++ {
		ps, qs := make([]G1, n), make([]G2, n)
		for i := range ps {
			ps[i], qs[i] = randomPair(t)
		}
		check := func(name string, ps []G1, qs []G2) {
			got := pairingProduct(ps, prepareAll(qs))
			want := pairingProductOnTheFly(ps, qs)
			if !got.equal(&want) {
				t.Fatalf("n=%d %s: prepared and on-the-fly pairings differ", n, name)
			}
		}
		check("random", ps, qs)
		// An infinity in either slot drops that pair and only that pair.
		for i := 0; i < n; i++ {
			p2 := append([]G1(nil), ps...)
			p2[i] = g1Infinity()
			check("G1 infinity", p2, qs)
			q2 := append([]G2(nil), qs...)
			q2[i] = g2Infinity()
			check("G2 infinity", ps, q2)
		}
	}
}

// lineInputs returns 1/yP and xP/yP for a finite G1 point, the inputs
// millerLoop takes in place of its affine coordinates.
func lineInputs(p G1) (yInv, xOverY fe) {
	px, py, _ := p.affine()
	feInv(&yInv, &py)
	feMul(&xOverY, &px, &yInv)
	return yInv, xOverY
}

func TestPreparedLinesMatchOnTheFlyLoop(t *testing.T) {
	// Before the final exponentiation the two loops differ by the product
	// of the factors c4·yP the normalised lines were divided by: an element
	// of Fp2, so got·want⁻¹ has every coefficient but a0.b0 zero. After
	// it they agree.
	for n := 1; n <= 2; n++ {
		var yInvs, xOverYs, pxs, pys []fe
		var prep []*g2Prepared
		var qaffs [][2]fe2
		for i := 0; i < n; i++ {
			p, q := randomPair(t)
			yInv, xOverY := lineInputs(p)
			px, py, _ := p.affine()
			qx, qy, _ := q.affine()
			yInvs, xOverYs = append(yInvs, yInv), append(xOverYs, xOverY)
			pxs, pys = append(pxs, px), append(pys, py)
			prep, qaffs = append(prep, prepareG2(q)), append(qaffs, [2]fe2{qx, qy})
		}
		got := millerLoop(yInvs, xOverYs, prep)
		want := millerLoopOnTheFly(pxs, pys, qaffs)
		var ratio fe12
		ratio.inv(&want)
		ratio.mul(&ratio, &got)
		rest := ratio
		rest.a0.b0.setZero()
		if ratio.a0.b0.isZero() || !rest.equal(&fe12{}) {
			t.Fatalf("n=%d: prepared Miller loop output is not the on-the-fly one times an Fp2 factor", n)
		}
		got, want = finalExp(got), finalExp(want)
		if !got.equal(&want) {
			t.Fatalf("n=%d: prepared and on-the-fly loops differ after the final exponentiation", n)
		}
	}
}

func TestPrepareG2NeverMeetsZeroC4(t *testing.T) {
	// The normalisation divides every line by its v·w coefficient; for the
	// generator and for random subgroup points none is zero, so none of
	// the batched inverses is the zero fe2BatchInv leaves in place.
	qs := []G2{G2Generator(), G2Generator().Neg()}
	for i := 0; i < 8; i++ {
		_, q := randomPair(t)
		qs = append(qs, q)
	}
	for n, q := range qs {
		qx, qy, _ := q.affine()
		var one fe2
		one.setOne()
		r := g2Proj{x: qx, y: qy, z: one}
		var coeff [3]fe2
		for i := blsXBitLen - 2; i >= 0; i-- {
			doublingStep(&coeff, &r)
			if coeff[2].isZero() {
				t.Fatalf("point %d: the tangent at bit %d has c4 = 0", n, i)
			}
			if blsX>>uint(i)&1 == 1 {
				additionStep(&coeff, &r, &qx, &qy)
				if coeff[2].isZero() {
					t.Fatalf("point %d: the chord at bit %d has c4 = 0", n, i)
				}
			}
		}
	}
}

func TestPairingKATOnTheFlyOracle(t *testing.T) {
	// The pinned e(G1, G2) bytes hold for the oracle loop as well as for
	// the prepared production loop (TestPairingKnownAnswer).
	e := pairingProductOnTheFly([]G1{G1Generator()}, []G2{G2Generator()})
	if got := hex.EncodeToString(GT{e}.Bytes()); got != pairingKAT {
		t.Fatalf("oracle e(G1, G2) drifted from the KAT:\n got %s", got)
	}
}

func TestPreparedArgumentReuse(t *testing.T) {
	// One prepared Q serves several pairings: e(P1, Q)·e(P2, Q) == e(P1+P2, Q)
	// with the same lines behind all three, and bilinearity in the G2 slot
	// through a second preparation.
	P1 := G1Generator().Mul(big.NewInt(3))
	P2 := G1Generator().Mul(big.NewInt(5))
	Q := G2Generator().Mul(big.NewInt(7))
	lines := prepareG2(Q)
	e1 := pairingProduct([]G1{P1}, []*g2Prepared{lines})
	e2 := pairingProduct([]G1{P2}, []*g2Prepared{lines})
	sum := pairingProduct([]G1{P1.Add(P2)}, []*g2Prepared{lines})
	var prod fe12
	prod.mul(&e1, &e2)
	if !sum.equal(&prod) {
		t.Fatal("left linearity failed over a reused preparation")
	}
	base := pairingProduct([]G1{P1}, []*g2Prepared{g2GeneratorPrepared()})
	if !fe12ToLegacy(&e1).equalL(fe12ToLegacy(&base).expL(big.NewInt(7))) {
		t.Fatal("e(P, 7·G2) != e(P, G2)^7 over prepared arguments")
	}
}

func TestVerifyThroughCachedLines(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg, other := []byte("epoch 1"), []byte("epoch 2")
	sig, pop := sk.Sign(msg), sk.ProvePossession(pk)
	verdicts := func(k *PublicKey) {
		t.Helper()
		if ok, err := k.Verify(msg, sig); err != nil || !ok {
			t.Fatal("valid signature rejected")
		}
		if ok, err := k.Verify(other, sig); err != nil || ok {
			t.Fatal("signature accepted for another message")
		}
		if ok, err := VerifyPossession(k, pop); err != nil || !ok {
			t.Fatal("valid proof of possession rejected")
		}
		if ok, err := VerifyPossession(k, sig); err != nil || ok {
			t.Fatal("a message signature passed as a proof of possession")
		}
	}
	if pk.prep != nil {
		t.Fatal("lines prepared before any verification")
	}
	verdicts(pk)
	first := pk.prep
	if first == nil {
		t.Fatal("first verification did not keep the key's lines")
	}
	// A key rebuilt from bytes in between starts without lines and reaches
	// the same verdicts; the original keeps taking its cached ones.
	parsed, err := PublicKeyFromBytes(pk.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if parsed.prep != nil {
		t.Fatal("a parsed key inherited prepared lines")
	}
	verdicts(parsed)
	verdicts(pk)
	if pk.prep != first {
		t.Fatal("second verification rebuilt the cached lines")
	}
	if *parsed.prep != *first {
		t.Fatal("two preparations of one key differ")
	}
}
