package bls

import (
	"bytes"
	"crypto/rand"
	"math/big"
	mrand "math/rand"
	"sync"
	"testing"
)

// witnessConstants derives λ, K and e = −λ⁻¹ mod K from p, r and x.
func witnessConstants(t testing.TB) (lambda, k, e *big.Int) {
	t.Helper()
	lambda = new(big.Int).Add(pMod, blsXAbs) // p − x, x < 0
	p6 := new(big.Int).Exp(pMod, big.NewInt(6), nil)
	k, rem := new(big.Int).DivMod(p6.Add(p6, big.NewInt(1)), rOrder, new(big.Int))
	if rem.Sign() != 0 {
		t.Fatal("r does not divide p⁶+1")
	}
	inv := new(big.Int).ModInverse(lambda, k)
	if inv == nil {
		t.Fatal("λ has no inverse mod K")
	}
	e = new(big.Int).Sub(k, inv)
	return lambda, k, e
}

// TestWitnessExponentFacts pins the facts the soundness and completeness
// arguments in witness.go rest on, and recomputes the exponent digits.
func TestWitnessExponentFacts(t *testing.T) {
	lambda, k, e := witnessConstants(t)
	m, rem := new(big.Int).DivMod(lambda, rOrder, new(big.Int))
	if rem.Sign() != 0 {
		t.Fatal("r does not divide λ")
	}
	// (x−1)²/3 with x = −|x|: (|x|+1)²/3.
	cof := new(big.Int).Add(blsXAbs, big.NewInt(1))
	cof.Mul(cof, cof)
	cof, rem = cof.DivMod(cof, big3, new(big.Int))
	if rem.Sign() != 0 || m.Cmp(cof) != 0 {
		t.Fatalf("λ/r = %x, want (x−1)²/3 = %x", m, cof)
	}
	if new(big.Int).Mod(k, rOrder).Sign() == 0 {
		t.Fatal("r divides K")
	}
	if g := new(big.Int).GCD(nil, nil, lambda, k); g.Cmp(big.NewInt(1)) != 0 {
		t.Fatalf("gcd(λ, K) = %v", g)
	}
	// h = (p¹²−1)/r is a multiple of p⁶−1.
	p6 := new(big.Int).Exp(pMod, big.NewInt(6), nil)
	h := new(big.Int).Mul(p6, p6)
	h.Sub(h, big.NewInt(1)).Div(h, rOrder)
	if new(big.Int).Mod(h, new(big.Int).Sub(p6, big.NewInt(1))).Sign() != 0 {
		t.Fatal("p⁶−1 does not divide (p¹²−1)/r")
	}
	// 1 + eλ ≡ 0 (mod K).
	if one := new(big.Int).Mul(e, lambda); one.Add(one, big.NewInt(1)).Mod(one, k).Sign() != 0 {
		t.Fatal("e is not −λ⁻¹ mod K")
	}
	rest := new(big.Int).Set(e)
	for i, limbs := range witnessDigits {
		var want big.Int
		rest.DivMod(rest, pMod, &want)
		var got big.Int
		for j := len(limbs) - 1; j >= 0; j-- {
			got.Lsh(&got, 64).Or(&got, new(big.Int).SetUint64(limbs[j]))
		}
		if got.Cmp(&want) != 0 {
			t.Fatalf("digit %d = %x, want %x", i, &got, &want)
		}
	}
	if rest.Sign() != 0 {
		t.Fatal("e has more than six base-p digits")
	}
}

// TestWitnessNAF checks each digit's signed windows sum back to it, with
// odd digits of magnitude below 2^(w−1) and w−1 zeros after each.
func TestWitnessNAF(t *testing.T) {
	for i, naf := range witnessNAF {
		var sum big.Int
		for j := len(naf) - 1; j >= 0; j-- {
			sum.Lsh(&sum, 1).Add(&sum, big.NewInt(int64(naf[j])))
			if d := naf[j]; d != 0 {
				if d%2 == 0 || d >= 1<<(witnessWindow-1) || d <= -(1<<(witnessWindow-1)) {
					t.Fatalf("digit %d: window %d out of range", i, d)
				}
				for k := j - 1; k >= 0 && k > j-witnessWindow; k-- {
					if naf[k] != 0 {
						t.Fatalf("digit %d: windows at %d and %d overlap", i, j, k)
					}
				}
			}
		}
		var want big.Int
		for j := len(witnessDigits[i]) - 1; j >= 0; j-- {
			want.Lsh(&want, 64).Or(&want, new(big.Int).SetUint64(witnessDigits[i][j]))
		}
		if sum.Cmp(&want) != 0 {
			t.Fatalf("digit %d: NAF sums to %x, want %x", i, &sum, &want)
		}
	}
}

// fe12ExpBig is square-and-multiply over e's bits, the oracle for
// residueWitness.
func fe12ExpBig(x *fe12, e *big.Int) fe12 {
	var z fe12
	z.setOne()
	for i := e.BitLen() - 1; i >= 0; i-- {
		z.square(&z)
		if e.Bit(i) == 1 {
			z.mul(&z, x)
		}
	}
	return z
}

// inFp6 reports whether x is a nonzero element of Fp6.
func inFp6(x *fe12) bool { return x.a1.isZero() && !x.a0.isZero() }

// TestResidueWitnessMatchesPlainPower: the windowed Frobenius
// multi-exponentiation is F^e up to a factor in Fp6*, for arbitrary F.
func TestResidueWitnessMatchesPlainPower(t *testing.T) {
	_, _, e := witnessConstants(t)
	for i := 0; i < 3; i++ {
		f := randFe12(t)
		got := residueWitness(&f)
		want := fe12ExpBig(&f, e)
		var q fe12
		q.inv(&want)
		q.mul(&q, &got)
		if !inFp6(&q) {
			t.Fatalf("draw %d: residueWitness(F)/F^e is not in Fp6*", i)
		}
	}
}

// witnessFleet is a small roster with every key's signature over a pool
// of messages, so a draw aggregates instead of signing.
type witnessFleet struct {
	pks  []*PublicKey
	msgs []Message
	sigs [][]*Signature // sigs[m][k]: key k's signature on message m
}

func newWitnessFleet(t testing.TB, keys, msgs int) *witnessFleet {
	t.Helper()
	sks, pks, err := GenerateKeyBatch(rand.Reader, keys)
	if err != nil {
		t.Fatal(err)
	}
	f := &witnessFleet{pks: pks}
	for m := 0; m < msgs; m++ {
		var b [16]byte
		rand.Read(b[:])
		msg := HashMessage(b[:])
		f.msgs = append(f.msgs, msg)
		row := make([]*Signature, keys)
		for k, sk := range sks {
			row[k] = sk.SignMessage(msg)
		}
		f.sigs = append(f.sigs, row)
	}
	return f
}

// draw returns an aggregate signature on a random message under a random
// nonempty subset of the roster, and the subset's key.
func (f *witnessFleet) draw(t testing.TB, rng *mrand.Rand) (Message, *Signature, *PublicKey) {
	t.Helper()
	m := rng.Intn(len(f.msgs))
	var sigs []*Signature
	var pks []*PublicKey
	for len(sigs) == 0 {
		for k := range f.pks {
			if rng.Intn(2) == 1 {
				sigs, pks = append(sigs, f.sigs[m][k]), append(pks, f.pks[k])
			}
		}
	}
	sig, err := AggregateSignatures(sigs)
	if err != nil {
		t.Fatal(err)
	}
	apk, err := AggregatePublicKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	return f.msgs[m], sig, apk
}

// TestWitnessCompleteness: every valid (σ, m, apk), over random messages
// and partial-quorum keys, verifies with its witness, and agrees with the
// final-exponentiation check. The previous draw's witness fails whenever
// the draw differs. 1,000 draws take ≈ 4 s on ADX; under -short, and on
// the Go kernels (≈ 70 ms a draw under GOARCH=386), 200.
func TestWitnessCompleteness(t *testing.T) {
	draws := 1000
	if testing.Short() || !useADX {
		draws = 200
	}
	f := newWitnessFleet(t, 8, 16)
	rng := mrand.New(mrand.NewSource(1))
	var prev *Witness
	var prevSig *Signature
	var prevKey *PublicKey
	var prevMsg Message
	for i := 0; i < draws; i++ {
		m, sig, apk := f.draw(t, rng)
		w, err := apk.ProveMessage(m, sig)
		if err != nil {
			t.Fatal(err)
		}
		// Decoded as the HSM decodes it: with its cofactor preimage.
		decoded, err := SignatureFromPreimage(sig.Bytes(), sig.Preimage())
		if err != nil {
			t.Fatalf("draw %d: valid aggregate's preimage refused: %v", i, err)
		}
		if ok, _ := apk.VerifyMessageWitness(m, decoded, w); !ok {
			t.Fatalf("draw %d: valid signature's witness rejected", i)
		}
		if i < 20 {
			if ok, _ := apk.VerifyMessage(m, sig); !ok {
				t.Fatalf("draw %d: final-exponentiation check rejects a valid signature", i)
			}
		}
		same := prevSig != nil && prevSig.p.Equal(sig.p) && prevKey.p.Equal(apk.p) && prevMsg.h.Equal(m.h)
		if prev != nil && !same {
			if ok, _ := apk.VerifyMessageWitness(m, sig, prev); ok {
				t.Fatalf("draw %d: the previous draw's witness verified", i)
			}
		}
		prev, prevSig, prevKey, prevMsg = w, sig, apk, m
	}
}

// TestWitnessSoundness: a forged aggregate, which the final-exponentiation
// check also refuses, fails with the witness the prover computes for it,
// and a valid aggregate fails with a wrong witness.
func TestWitnessSoundness(t *testing.T) {
	f := newWitnessFleet(t, 4, 4)
	rng := mrand.New(mrand.NewSource(2))
	m, sig, apk := f.draw(t, rng)
	w, err := apk.ProveMessage(m, sig)
	if err != nil {
		t.Fatal(err)
	}
	forged := &Signature{p: sig.p.Add(m.h)}
	fw, err := apk.ProveMessage(m, forged)
	if err != nil {
		t.Fatal(err)
	}
	other := HashMessage([]byte("another header"))
	ow, err := apk.ProveMessage(other, sig)
	if err != nil {
		t.Fatal(err)
	}
	var scaled Witness
	scaled.u.mul(&w.u, &w.u) // u² is not u up to Fp6*
	var unit Witness
	unit.u.setOne()
	cases := []struct {
		name string
		m    Message
		sig  *Signature
		w    *Witness
	}{
		{"forged aggregate, its own witness", m, forged, fw},
		{"valid aggregate, forged aggregate's witness", m, sig, fw},
		{"other message's witness", m, sig, ow},
		{"witness squared", m, sig, &scaled},
		{"witness one", m, sig, &unit},
		{"valid witness, other message", other, sig, w},
	}
	for _, c := range cases {
		if ok, _ := apk.VerifyMessageWitness(c.m, c.sig, c.w); ok {
			t.Errorf("%s: verified", c.name)
		}
		if ok, _ := apk.VerifyMessage(c.m, c.sig); ok && c.sig == forged {
			t.Errorf("%s: final-exponentiation check accepts", c.name)
		}
	}
	var zero Witness
	if ok, _ := apk.VerifyMessageWitness(m, sig, &zero); ok {
		t.Error("zero witness verified")
	}
	if ok, _ := apk.VerifyMessageWitness(m, sig, nil); ok {
		t.Error("nil witness verified")
	}
	if ok, _ := apk.VerifyMessageWitness(m, sig, w); !ok {
		t.Error("valid witness rejected")
	}
	// A factor in Fp6* does not change the verdict (the prover relies on
	// it): u·c for a random c ∈ Fp6*.
	var c, wc Witness
	c.u.a0 = randFe6(t)
	wc.u.mul(&w.u, &c.u)
	if ok, _ := apk.VerifyMessageWitness(m, sig, &wc); !ok {
		t.Error("witness times an Fp6* factor rejected")
	}
}

// TestValidMillerProductResidue: for a valid F, F^K ∈ Fp6* (completeness),
// and for an invalid one it is not.
func TestValidMillerProductResidue(t *testing.T) {
	_, k, _ := witnessConstants(t)
	f := newWitnessFleet(t, 2, 2)
	rng := mrand.New(mrand.NewSource(3))
	m, sig, apk := f.draw(t, rng)
	product := func(s *Signature) fe12 {
		v := millerProduct([]G1{s.p.Neg(), m.h}, []*g2Prepared{g2GeneratorPrepared(), apk.prepared()}, nil)
		v.conj(&v)
		return v
	}
	valid := product(sig)
	if got := fe12ExpBig(&valid, k); !inFp6(&got) {
		t.Fatal("F^K is not in Fp6* for a valid signature")
	}
	bad := product(&Signature{p: sig.p.Add(sig.p)})
	if got := fe12ExpBig(&bad, k); inFp6(&got) {
		t.Fatal("F^K is in Fp6* for an invalid signature")
	}
}

func TestWitnessEncoding(t *testing.T) {
	f := newWitnessFleet(t, 2, 2)
	m, sig, apk := f.draw(t, mrand.New(mrand.NewSource(4)))
	w, err := apk.ProveMessage(m, sig)
	if err != nil {
		t.Fatal(err)
	}
	enc := w.Bytes()
	if len(enc) != WitnessSize || WitnessSize != 576 {
		t.Fatalf("witness encodes to %d bytes, WitnessSize %d", len(enc), WitnessSize)
	}
	back, err := WitnessFromBytes(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), enc) {
		t.Fatal("witness does not round-trip")
	}
	if ok, _ := apk.VerifyMessageWitness(m, sig, back); !ok {
		t.Fatal("decoded witness rejected")
	}
	pBytes := make([]byte, fpSize)
	pMod.FillBytes(pBytes)
	for i := 0; i < 12; i++ {
		bad := bytes.Clone(enc)
		copy(bad[i*fpSize:], pBytes)
		if _, err := WitnessFromBytes(bad); err == nil {
			t.Fatalf("coordinate %d = p accepted", i)
		}
		bad[i*fpSize] = 0xff
		if _, err := WitnessFromBytes(bad); err == nil {
			t.Fatalf("coordinate %d ≥ 2³⁸³ accepted", i)
		}
	}
	if _, err := WitnessFromBytes(make([]byte, WitnessSize)); err == nil {
		t.Fatal("zero witness accepted")
	}
	for _, n := range []int{0, WitnessSize - 1, WitnessSize + 1, GTSize + fpSize} {
		if _, err := WitnessFromBytes(make([]byte, n)); err == nil {
			t.Fatalf("%d-byte witness accepted", n)
		}
	}
	// One is canonical and decodes; it is simply the wrong witness.
	var one fe12
	one.setOne()
	if _, err := WitnessFromBytes((&Witness{u: one}).Bytes()); err != nil {
		t.Fatalf("the witness one is refused: %v", err)
	}
}

// FuzzWitness: the decoder never panics, and whatever it accepts
// re-encodes to the same bytes.
func FuzzWitness(f *testing.F) {
	fleet := newWitnessFleet(f, 1, 1)
	m, sig, apk := fleet.draw(f, mrand.New(mrand.NewSource(5)))
	w, err := apk.ProveMessage(m, sig)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(w.Bytes())
	f.Add(make([]byte, WitnessSize))
	f.Add([]byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, b []byte) {
		w, err := WitnessFromBytes(b)
		if err != nil {
			return
		}
		if !bytes.Equal(w.Bytes(), b) {
			t.Fatal("accepted witness does not re-encode to its bytes")
		}
	})
}

// witnessRing is benchRing (message, aggregate, witness) triples under one
// key with cached lines, built once per process: the ratio guard calls
// the benchmark many times, and each ring costs benchRing proofs.
var witnessRing = sync.OnceValues(func() (*PublicKey, *[benchRing]witnessCase) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		panic(err)
	}
	var r [benchRing]witnessCase
	for i := range r {
		var b [16]byte
		rand.Read(b[:])
		m := HashMessage(b[:])
		sig, err := SignatureFromBytes(sk.SignMessage(m).Bytes())
		if err != nil {
			panic(err)
		}
		w, err := pk.ProveMessage(m, sig)
		if err != nil {
			panic(err)
		}
		r[i] = witnessCase{m, sig, w}
	}
	return pk, &r
})

type witnessCase struct {
	m   Message
	sig *Signature
	w   *Witness
}

// BenchmarkVerifyWitness is the HSM's commit check: a signature parsed
// off the wire, a key with cached lines, and the provider's witness,
// over a ring of inputs.
func BenchmarkVerifyWitness(b *testing.B) {
	pk, r := witnessRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &r[i&(benchRing-1)]
		if ok, _ := pk.VerifyMessageWitness(c.m, c.sig, c.w); !ok {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkProveWitness is the provider's work per epoch for a key with
// cached lines: the Miller loop and the residue witness.
func BenchmarkProveWitness(b *testing.B) {
	pk, r := witnessRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := &r[i&(benchRing-1)]
		if _, err := pk.ProveMessage(c.m, c.sig); err != nil {
			b.Fatal(err)
		}
	}
}
