package bls

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math/big"
	"sync"
	"testing"
)

// TestCofactorPreimageFacts pins the arithmetic the preimage check rests
// on: h_eff = 1 − x is the product of the cofactor's primes, once each,
// the G1 cofactor h₁ = #E(Fp)/r is (1 − x)²/3, and heffInv is
// (1 − x)⁻¹ mod r.
func TestCofactorPreimageFacts(t *testing.T) {
	heff := new(big.Int).Add(blsXAbs, big.NewInt(1)) // 1 − x, x < 0
	prod := big.NewInt(1)
	for _, q := range []int64{3, 11, 10177, 859267, 52437899} {
		prod.Mul(prod, big.NewInt(q))
	}
	if heff.Cmp(prod) != 0 {
		t.Fatalf("1 − x = %x, want 3·11·10177·859267·52437899 = %x", heff, prod)
	}
	if heff.Uint64() != blsX+1 {
		t.Fatal("1 − x is not |x| + 1")
	}
	h1, rem := new(big.Int).DivMod(new(big.Int).Mul(heff, heff), big3, new(big.Int))
	if rem.Sign() != 0 || h1.Cmp(g1Cofactor) != 0 {
		t.Fatalf("(1 − x)²/3 = %x, want the G1 cofactor %x", h1, g1Cofactor)
	}
	// #E(Fp) = p + 1 − t with trace t = x + 1, so p − x = h₁·r.
	if n := new(big.Int).Add(pMod, blsXAbs); n.Cmp(new(big.Int).Mul(h1, rOrder)) != 0 {
		t.Fatal("p − x is not h₁·r")
	}
	inv := new(big.Int).ModInverse(heff, rOrder)
	var want [4]uint64
	for i := range want {
		want[i] = new(big.Int).Rsh(inv, uint(64*i)).Uint64()
	}
	if heffInv.l != want {
		t.Fatalf("heffInv = %x, want (1 − x)⁻¹ mod r = %x", heffInv.l, want)
	}
}

// randCurvePoint returns a random point of E(Fp), almost surely outside
// G1: an SSWU output carried to E by the isogeny, before any clearing.
func randCurvePoint(tb testing.TB) G1 {
	u := randFe(tb)
	xn, xd, y, _, _ := mapToCurveSSWU(&u, nil)
	return isoMapG1(&xn, &xd, &y)
}

// TestClearCofactorG1 checks that h_eff sends the small-order points to O
// and random points of E(Fp) into G1.
func TestClearCofactorG1(t *testing.T) {
	var two fe
	feFromUint64(&two, 2)
	small := []G1{g1FromAffine(fe{}, two)}
	for _, l := range []int64{3, 11, 10177, 859267, 52437899} {
		small = append(small, g1OfOrder(t, l))
	}
	for i, p := range small {
		if !clearCofactorG1(p).IsInfinity() {
			t.Errorf("small-order point %d survives clearCofactorG1", i)
		}
	}
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		p := randCurvePoint(t)
		if !p.OnCurve() {
			t.Fatalf("draw %d: isogeny image off E", i)
		}
		if c := clearCofactorG1(p); c.IsInfinity() || !c.InSubgroup() {
			t.Fatalf("draw %d: clearCofactorG1 left E(Fp) point outside G1", i)
		}
	}
}

// TestPreimageRoundTrip checks clearCofactorG1(preimage(σ)) = σ for random
// σ ∈ G1, through the encodings.
func TestPreimageRoundTrip(t *testing.T) {
	n := 1000
	if testing.Short() || !useADX {
		n = 100
	}
	for i := 0; i < n; i++ {
		s := &Signature{p: randG1Decoded(t)}
		pre := s.Preimage()
		tau, err := g1DecodeUncompressed(pre)
		if err != nil || !tau.InSubgroup() {
			t.Fatalf("draw %d: preimage %x is not a G1 point (%v)", i, pre, err)
		}
		if !clearCofactorG1(tau).Equal(s.p) {
			t.Fatalf("draw %d: clearCofactorG1(τ) ≠ σ", i)
		}
		got, err := SignatureFromPreimage(s.Bytes(), pre)
		if err != nil || !bytes.Equal(got.Bytes(), s.Bytes()) {
			t.Fatalf("draw %d: valid preimage refused: %v", i, err)
		}
	}
}

// TestPreimageRefusals feeds SignatureFromPreimage every tampered input.
func TestPreimageRefusals(t *testing.T) {
	s := &Signature{p: randG1Decoded(t)}
	sig, pre := s.Bytes(), s.Preimage()
	other := (&Signature{p: randG1Decoded(t)}).Preimage()
	tau, _ := g1DecodeUncompressed(pre)

	// A torsion point added to τ is cleared with it: the check proves σ's
	// membership, not that τ is the one preimage.
	var two fe
	feFromUint64(&two, 2)
	for _, T := range []G1{g1FromAffine(fe{}, two), g1OfOrder(t, 11), g1OfOrder(t, 52437899)} {
		if _, err := SignatureFromPreimage(sig, tau.Add(T).Bytes()); err != nil {
			t.Errorf("τ + T for small-order T refused: %v", err)
		}
	}

	// An invalid-curve preimage: a point of y² = x³ + b′, b′ ≠ 4, whose
	// image under the b-blind formulas is a forged σ′ on the same curve.
	// Only the on-curve check of τ stands between it and acceptance.
	x, y := randFe(t), randFe(t)
	forgedTau := g1FromAffine(x, y)
	forgedSig := clearCofactorG1(forgedTau)
	if forgedTau.OnCurve() || !clearCofactorG1(forgedTau).Equal(forgedSig) {
		t.Fatal("invalid-curve fixture is on E")
	}

	offCurve := append([]byte(nil), pre...)
	offCurve[len(offCurve)-1] ^= 1
	overP := append([]byte(nil), pre...)
	copy(overP[1:1+fpSize], pMod.FillBytes(make([]byte, fpSize)))
	badTag := append([]byte(nil), pre...)
	badTag[0] = 0x02
	for _, c := range []struct {
		name     string
		sig, pre []byte
	}{
		{"preimage of another signature", sig, other},
		{"τ + a point of E outside the torsion", sig, tau.Add(randCurvePoint(t)).Bytes()},
		{"off-curve preimage", sig, offCurve},
		{"invalid-curve preimage of a forged signature", forgedSig.Bytes(), forgedTau.Bytes()},
		{"identity preimage", sig, make([]byte, PreimageSize)},
		{"identity signature", make([]byte, G1Size), pre},
		{"preimage coordinate ≥ p", sig, overP},
		{"preimage tag", sig, badTag},
		{"short preimage", sig, pre[:PreimageSize-1]},
		{"long preimage", sig, append(append([]byte(nil), pre...), 0)},
		{"no preimage", sig, nil},
		{"short signature", sig[:G1Size-1], pre},
	} {
		if _, err := SignatureFromPreimage(c.sig, c.pre); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}

// TestHashHintRFCVectors runs every RFC 9380 G1 vector through the hinted
// path with the prover's hint: the same point, bit for bit, as the
// vector and the unhinted hash; and HashMessageHinted with the prover's
// hint equals HashMessage on each vector's message.
func TestHashHintRFCVectors(t *testing.T) {
	for _, v := range hashToCurveVectors {
		msg := []byte(v.msg)
		want, hint := proveHash(rfcDST, msg)
		if !bytes.Equal(want.Bytes(), hashToG1RFC(rfcDST, msg).Bytes()) {
			t.Fatalf("msg %q: proveHash differs from the hash", v.msg)
		}
		got, err := hashHinted(rfcDST, msg, hint)
		if err != nil {
			t.Fatalf("msg %q: prover's hint refused: %v", v.msg, err)
		}
		if got != want {
			t.Fatalf("msg %q: hinted hash %x, want %x", v.msg, got, want)
		}
		if enc := hex.EncodeToString(got.Bytes()); enc != "04"+v.px+v.py {
			t.Fatalf("msg %q: hinted hash is not the vector", v.msg)
		}
		m, mh := ProveHash(msg)
		if hm := HashMessage(msg); hm != m {
			t.Fatalf("msg %q: ProveHash and HashMessage differ", v.msg)
		}
		hm, err := HashMessageHinted(msg, mh)
		if err != nil || hm != m {
			t.Fatalf("msg %q: HashMessageHinted %v, err %v", v.msg, hm, err)
		}
	}
}

// TestHashHintRefusals tampers with every part of a hint.
func TestHashHintRefusals(t *testing.T) {
	msg := []byte("epoch header")
	m, hint := ProveHash(msg)
	enc := hint.Bytes()
	if back, err := HashHintFromBytes(enc); err != nil || *back != *hint {
		t.Fatalf("hint does not round-trip: %v", err)
	}

	// Either sign of a root is the same root: sgn0 decides.
	flipped := *hint
	feNeg(&flipped.roots[1], &flipped.roots[1])
	if got, err := HashMessageHinted(msg, &flipped); err != nil || got != m {
		t.Fatalf("negated root refused or different: %v", err)
	}

	tamper := func(f func(h *HashHint)) *HashHint {
		h := *hint
		f(&h)
		return &h
	}
	_, otherHint := ProveHash([]byte("another header"))
	one := feR
	cases := []struct {
		name string
		hint *HashHint
	}{
		{"no hint", nil},
		{"hint for another header", otherHint},
		{"random root 0", tamper(func(h *HashHint) { h.roots[0] = randFe(t) })},
		{"random root 1", tamper(func(h *HashHint) { h.roots[1] = randFe(t) })},
		{"zero root", tamper(func(h *HashHint) { h.roots[0] = fe{} })},
		{"wrong x", tamper(func(h *HashHint) { feAdd(&h.x, &h.x, &one) })},
		{"negated y", tamper(func(h *HashHint) { feNeg(&h.y, &h.y) })},
		{"identity point", tamper(func(h *HashHint) { h.x, h.y = fe{}, fe{} })},
	}
	// The root of the other branch: sqrtRatio3mod4 returns y1 for a
	// square u/v and y1·c2 otherwise, and either times c2 (c2² = −Z)
	// squares to −Z·u/v or Z²·u/v, neither u/v nor Z·u/v.
	for i := range hint.roots {
		i := i
		cases = append(cases, struct {
			name string
			hint *HashHint
		}{fmt.Sprintf("other branch's root %d", i), tamper(func(h *HashHint) { feMul(&h.roots[i], &h.roots[i], &sswuC2) })})
	}
	for _, c := range cases {
		if _, err := HashMessageHinted(msg, c.hint); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	for i := 0; i < 4; i++ {
		over := append([]byte(nil), enc...)
		copy(over[i*fpSize:(i+1)*fpSize], pMod.FillBytes(make([]byte, fpSize)))
		if _, err := HashHintFromBytes(over); err == nil {
			t.Errorf("coordinate %d = p accepted", i)
		}
	}
	for _, n := range []int{0, HashHintSize - 1, HashHintSize + 1} {
		b := make([]byte, n)
		copy(b, enc)
		if _, err := HashHintFromBytes(b); err == nil {
			t.Errorf("%d-byte hint accepted", n)
		}
	}
}

// TestCheckSqrtRatioMatches holds the claimed-root check to sqrtRatio3mod4
// on random inputs and the u = 0 edge: the root it returns passes with
// the same isQR, as does its negation.
func TestCheckSqrtRatioMatches(t *testing.T) {
	us := []fe{{}}
	for i := 0; i < 64; i++ {
		us = append(us, randFe(t))
	}
	for i, u := range us {
		v := randFe(t)
		y, isQR := sqrtRatio3mod4(&u, &v)
		var ny fe
		feNeg(&ny, &y)
		for _, root := range []fe{y, ny} {
			gotQR, ok := checkSqrtRatio(&u, &v, &root)
			if ok != 1 || gotQR != isQR {
				t.Fatalf("input %d: check (isQR %d, ok %d), sqrt_ratio isQR %d", i, gotQR, ok, isQR)
			}
		}
	}
}

func FuzzHashHint(f *testing.F) {
	_, hint := ProveHash([]byte("fuzz"))
	f.Add([]byte("fuzz"), hint.Bytes())
	f.Add([]byte("fuzz"), make([]byte, HashHintSize))
	f.Add([]byte{}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, msg, b []byte) {
		hint, err := HashHintFromBytes(b)
		if err != nil {
			return
		}
		if !bytes.Equal(hint.Bytes(), b) {
			t.Fatal("accepted hint does not re-encode to its bytes")
		}
		if m, err := HashMessageHinted(msg, hint); err == nil && m != HashMessage(msg) {
			t.Fatal("accepted hint yields another message hash")
		}
	})
}

func FuzzPreimage(f *testing.F) {
	s := &Signature{p: G1Generator()}
	f.Add(s.Bytes(), s.Preimage())
	f.Add(s.Bytes(), make([]byte, PreimageSize))
	f.Add([]byte{4}, []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, sig, pre []byte) {
		got, err := SignatureFromPreimage(sig, pre)
		if err != nil {
			return
		}
		if !got.p.InSubgroup() || !bytes.Equal(got.Bytes(), sig) {
			t.Fatal("accepted signature is not the G1 point it encodes")
		}
	})
}

// hintRing is benchRing messages with their hints, and preimageRing
// benchRing signatures with their preimages, each built once per process:
// the ratio guard calls the benchmarks many times.
var hintRing = sync.OnceValues(func() (*[benchRing][]byte, *[benchRing]*HashHint) {
	var msgs [benchRing][]byte
	var hints [benchRing]*HashHint
	for i := range msgs {
		msgs[i] = []byte(fmt.Sprintf("the shared log-update tuple %d", i))
		_, hints[i] = ProveHash(msgs[i])
	}
	return &msgs, &hints
})

var preimageRing = sync.OnceValue(func() *[benchRing][2][]byte {
	var r [benchRing][2][]byte
	for i := range r {
		s := &Signature{p: G1Generator().MulSecret(&Scalar{l: [4]uint64{uint64(i) + 1, 0x5eed}})}
		r[i] = [2][]byte{s.Bytes(), s.Preimage()}
	}
	return &r
})

// BenchmarkHashToG1Hinted is the HSM's hash of an epoch header with the
// provider's hint, on a ring of messages.
func BenchmarkHashToG1Hinted(b *testing.B) {
	msgs, hints := hintRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (benchRing - 1)
		if _, err := HashMessageHinted(msgs[j], hints[j]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkG1FromPreimage is the HSM's decode of the aggregate signature
// with its cofactor preimage, on a ring of signatures.
func BenchmarkG1FromPreimage(b *testing.B) {
	r := preimageRing()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (benchRing - 1)
		if _, err := SignatureFromPreimage(r[j][0], r[j][1]); err != nil {
			b.Fatal(err)
		}
	}
}
