package bls

import (
	"crypto/rand"
	"encoding/hex"
	"math/big"
	"testing"
)

// The production pairing computes f^{3·(p⁴−p²+1)/r}; the legacy oracle
// computes f^{(p⁴−p²+1)/r}. They relate by a cube.
func legacyCubed(p G1, q G2) fp12 {
	e := legacyPair(p, q)
	return e.mulL(e).mulL(e)
}

func TestPairingMatchesLegacyOracle(t *testing.T) {
	// Differential test against the completely independent math/big
	// untwist-based engine, on random scalar multiples of the generators.
	for i := 0; i < 2; i++ {
		a, _ := rand.Int(rand.Reader, rOrder)
		b, _ := rand.Int(rand.Reader, rOrder)
		P := G1Generator().mulRaw(a)
		Q := G2Generator().mulRaw(b)
		got, err := Pair(P, Q)
		if err != nil {
			t.Fatal(err)
		}
		if !fe12ToLegacy(&got).equalL(legacyCubed(P, Q)) {
			t.Fatal("pairing disagrees with legacy oracle (up to the fixed cube)")
		}
	}
}

func TestPairingKnownAnswer(t *testing.T) {
	// Pinned serialization of e(G1, G2): regenerating it must be
	// byte-identical across refactors. The value was cross-checked against
	// the legacy math/big engine (TestPairingMatchesLegacyOracle).
	e, err := PairGT(G1Generator(), G2Generator())
	if err != nil {
		t.Fatal(err)
	}
	got := hex.EncodeToString(e.Bytes())
	if got != pairingKAT {
		t.Fatalf("e(G1, G2) drifted:\n got %s\nwant %s", got, pairingKAT)
	}
}

func TestPairingNonDegenerate(t *testing.T) {
	e, err := Pair(G1Generator(), G2Generator())
	if err != nil {
		t.Fatal(err)
	}
	if e.isOne() {
		t.Fatal("e(G1, G2) = 1: degenerate pairing")
	}
	// GT has order r: e^r == 1.
	if !fe12ToLegacy(&e).expL(rOrder).isOneL() {
		t.Fatal("pairing output not of order dividing r")
	}
}

func TestBilinearity(t *testing.T) {
	// e(aP, bQ) == e(P, Q)^{ab}: the defining property. A wrong Miller
	// loop, line evaluation, or final exponentiation virtually cannot pass.
	a := big.NewInt(7)
	b := big.NewInt(11)
	P, Q := G1Generator(), G2Generator()
	lhs, err := Pair(P.mulRaw(a), Q.mulRaw(b))
	if err != nil {
		t.Fatal(err)
	}
	base, err := Pair(P, Q)
	if err != nil {
		t.Fatal(err)
	}
	ab := new(big.Int).Mul(a, b)
	if !fe12ToLegacy(&lhs).equalL(fe12ToLegacy(&base).expL(ab)) {
		t.Fatal("bilinearity failed: e(aP,bQ) != e(P,Q)^{ab}")
	}
}

func TestBilinearityRandomScalars(t *testing.T) {
	a, _ := rand.Int(rand.Reader, rOrder)
	b, _ := rand.Int(rand.Reader, rOrder)
	P, Q := G1Generator(), G2Generator()
	lhs, err := Pair(P.mulRaw(a), Q.mulRaw(b))
	if err != nil {
		t.Fatal(err)
	}
	rhs, err := Pair(P.mulRaw(new(big.Int).Mul(a, b)), Q)
	if err != nil {
		t.Fatal(err)
	}
	if !lhs.equal(&rhs) {
		t.Fatal("e(aP, bQ) != e(abP, Q)")
	}
}

func TestPairingLinearLeft(t *testing.T) {
	// e(P1 + P2, Q) == e(P1, Q) · e(P2, Q): exactly the law aggregate
	// signature verification relies on.
	P1 := G1Generator().mulRaw(big.NewInt(3))
	P2 := G1Generator().mulRaw(big.NewInt(5))
	Q := G2Generator()
	lhs, err := Pair(P1.Add(P2), Q)
	if err != nil {
		t.Fatal(err)
	}
	e1, err := Pair(P1, Q)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Pair(P2, Q)
	if err != nil {
		t.Fatal(err)
	}
	var prod fe12
	prod.mul(&e1, &e2)
	if !lhs.equal(&prod) {
		t.Fatal("left linearity failed")
	}
}

func TestPairingInfinity(t *testing.T) {
	e, err := Pair(g1Infinity(), G2Generator())
	if err != nil {
		t.Fatal(err)
	}
	if !e.isOne() {
		t.Fatal("e(∞, Q) != 1")
	}
	e, err = Pair(G1Generator(), g2Infinity())
	if err != nil {
		t.Fatal(err)
	}
	if !e.isOne() {
		t.Fatal("e(P, ∞) != 1")
	}
}

func TestPairingCheck(t *testing.T) {
	// e(−P, Q)·e(P, Q) == 1
	P, Q := G1Generator(), G2Generator()
	ok, err := PairingCheck([]G1{P.Neg(), P}, []G2{Q, Q})
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("trivial pairing check failed")
	}
	ok, err = PairingCheck([]G1{P, P}, []G2{Q, Q})
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("e(P,Q)² = 1 should not hold")
	}
	if _, err := PairingCheck([]G1{P}, nil); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestPairingCheckMatchesLegacy(t *testing.T) {
	// Randomized differential test of the multi-pairing against the seed
	// semantics: accept/reject decisions must be identical, including
	// vectors that should verify (σ = s·H, pk = s·G2) and ones that must
	// not (independent random scalars).
	for i := 0; i < 2; i++ {
		s, _ := rand.Int(rand.Reader, rOrder)
		H := HashToG1(HashRFC9380, "diff-test", []byte{byte(i)})
		sig := H.mulRaw(s)
		pk := G2Generator().mulRaw(s)
		ps := []G1{sig.Neg(), H}
		qs := []G2{G2Generator(), pk}
		got, err := PairingCheck(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyPairingCheck(ps, qs); got != want {
			t.Fatalf("valid vector: got %v legacy %v", got, want)
		}
		if !got {
			t.Fatal("well-formed BLS relation rejected")
		}
		// Corrupt the signature: both engines must reject.
		bad := sig.Add(G1Generator())
		ps = []G1{bad.Neg(), H}
		got, err = PairingCheck(ps, qs)
		if err != nil {
			t.Fatal(err)
		}
		if want := legacyPairingCheck(ps, qs); got != want {
			t.Fatalf("corrupt vector: got %v legacy %v", got, want)
		}
		if got {
			t.Fatal("corrupted BLS relation accepted")
		}
	}
}

func TestMultiPairingSharesFinalExp(t *testing.T) {
	// The multi-pairing must equal the product of individual pairings
	// (one shared final exponentiation cannot change the verdict), and
	// must accept vectors whose product is 1 across many pairs.
	const n = 5
	ps := make([]G1, 0, 2*n)
	qs := make([]G2, 0, 2*n)
	for i := 0; i < n; i++ {
		k := big.NewInt(int64(3*i + 2))
		P := G1Generator().mulRaw(k)
		Q := G2Generator().mulRaw(big.NewInt(int64(i + 1)))
		ps = append(ps, P, P.Neg())
		qs = append(qs, Q, Q)
	}
	ok, err := PairingCheck(ps, qs)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("product of cancelling pairs should be 1")
	}
	// And the accumulated Miller-loop product matches multiplying the
	// individually final-exponentiated pairings.
	var prod fe12
	prod.setOne()
	for i := range ps {
		e, err := Pair(ps[i], qs[i])
		if err != nil {
			t.Fatal(err)
		}
		prod.mul(&prod, &e)
	}
	if !prod.isOne() {
		t.Fatal("individual pairings disagree with multi-pairing verdict")
	}
}

func BenchmarkPairing(b *testing.B) {
	P, Q := G1Generator(), G2Generator()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pair(P, Q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMillerLoop times the line evaluations of one pair over an
// already prepared G2 argument; BenchmarkPrepareG2 is the other half of a
// one-shot pairing's loop.
func BenchmarkMillerLoop(b *testing.B) {
	yInv, xOverY := lineInputs(G1Generator())
	yInvs, xOverYs, qs := []fe{yInv}, []fe{xOverY}, []*g2Prepared{prepareG2(G2Generator())}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		millerLoop(yInvs, xOverYs, qs, nil)
	}
}

func BenchmarkPrepareG2(b *testing.B) {
	q := G2Generator()
	for i := 0; i < b.N; i++ {
		prepareG2(q)
	}
}

func BenchmarkFinalExp(b *testing.B) {
	yInv, xOverY := lineInputs(G1Generator())
	f := millerLoop([]fe{yInv}, []fe{xOverY}, []*g2Prepared{prepareG2(G2Generator())}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		finalExp(f)
	}
}

func BenchmarkPairingCheck2(b *testing.B) {
	// The BLS-verification shape on a real relation, e(−σ, G2)·e(H, pk) = 1:
	// 2 pairs prepared on the fly, one final exponentiation. (Cancelling
	// pairs e(−P, Q)·e(P, Q) keep half of the accumulator's coefficients
	// at zero and time ≈ 7 % low on the branching field tails.) Inputs are
	// affine, as parsed points are.
	s := big.NewInt(0x5afe7a1e)
	gs := []G1{HashToG1(HashRFC9380, "bench", []byte("m"))}
	gs = append(gs, gs[0].mulRaw(s).Neg())
	g1NormalizeBatch(gs)
	qs := []G2{G2Generator(), G2Generator().mulRaw(s)}
	g2NormalizeBatch(qs)
	ps := []G1{gs[1], gs[0]}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := PairingCheck(ps, qs)
		if err != nil || !ok {
			b.Fatal("check failed")
		}
	}
}

// Equal reports GT equality.
func (a GT) Equal(b GT) bool { return a.v.equal(&b.v) }

// IsOne reports whether a is the identity.
func (a GT) IsOne() bool { return a.v.isOne() }

// GTSize is the encoded size of a GT element.
const GTSize = 12 * fpSize

// Bytes encodes the element as the 12 Fp coefficients (a0.b0.c0 … a1.b2.c1,
// each 48 big-endian bytes) — the known-answer-test format.
func (a GT) Bytes() []byte {
	out := make([]byte, 0, GTSize)
	for _, f6 := range []*fe6{&a.v.a0, &a.v.a1} {
		for _, f2 := range []*fe2{&f6.b0, &f6.b1, &f6.b2} {
			for _, c := range []*fe{&f2.c0, &f2.c1} {
				var buf [fpSize]byte
				feToBytes(buf[:], c)
				out = append(out, buf[:]...)
			}
		}
	}
	return out
}

func (x *fe12) equal(y *fe12) bool { return x.a0.equal(&y.a0) && x.a1.equal(&y.a1) }

func (x *fe6) equal(y *fe6) bool {
	return x.b0.equal(&y.b0) && x.b1.equal(&y.b1) && x.b2.equal(&y.b2)
}
