package bls

// pairing_prepared_test.go holds the on-the-fly Miller loop the prepared
// loop replaced, as the differential oracle, and the tests that a cached
// preparation never changes a verdict.

import (
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"math/bits"
	"testing"
)

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

func TestPreparedLinesMatchOnTheFlyLoop(t *testing.T) {
	// Before the final exponentiation too: same steps, same lines, the
	// accumulators are limb-identical.
	p, q := randomPair(t)
	px, py, _ := p.affine()
	qx, qy, _ := q.affine()
	got := millerLoop([]fe{px}, []fe{py}, []*g2Prepared{prepareG2(q)})
	want := millerLoopOnTheFly([]fe{px}, []fe{py}, [][2]fe2{{qx, qy}})
	if !got.equal(&want) {
		t.Fatal("prepared Miller loop output differs from the on-the-fly loop")
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
