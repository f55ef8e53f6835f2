package aggsig

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"math/big"
	"strings"
	"sync"
	"testing"

	"safetypin/internal/bls"
	"safetypin/internal/ecgroup"
)

// keyGen generates n signers and their keys.
func keyGen(tb testing.TB, n int) ([]Signer, []PublicKey) {
	tb.Helper()
	signers, err := KeyGenBatch(nil, rand.Reader, n)
	if err != nil {
		tb.Fatal(err)
	}
	pks := make([]PublicKey, n)
	for i, s := range signers {
		pks[i] = s.PublicKey()
	}
	return signers, pks
}

// signAll has every signer sign msg.
func signAll(tb testing.TB, signers []Signer, msg []byte) [][]byte {
	tb.Helper()
	sigs := make([][]byte, len(signers))
	for i, s := range signers {
		sig, err := s.Sign(msg)
		if err != nil {
			tb.Fatal(err)
		}
		sigs[i] = sig
	}
	return sigs
}

func TestBLSSchemeNames(t *testing.T) {
	if Name != "bls12381-multisig" {
		t.Fatal("BLS scheme name drifted")
	}
}

func TestAggregateRoundTripBothSchemes(t *testing.T) {
	t.Run(Name, func(t *testing.T) {
		msg := []byte("epoch tuple (d, d', R)")
		signers, pks := keyGen(t, 5)
		// Through the scheme handle, as safetypin.Params carries it.
		sc := BLS()
		agg, err := sc.Aggregate(signAll(t, signers, msg))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := sc.VerifyAggregate(pks, msg, agg)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatal("aggregate rejected")
		}
	})
}

// TestHashedMessagePath drives SignMessage and VerifyWithKey on one hashed
// message: the signature verifies like Sign's and is byte-identical to it.
func TestHashedMessagePath(t *testing.T) {
	msg := []byte("epoch tuple (d, d', R)")
	t.Run(Name, func(t *testing.T) {
		signer, err := KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		m := HashMessage(msg)
		sig, err := signer.SignMessage(m)
		if err != nil {
			t.Fatal(err)
		}
		pks := []PublicKey{signer.PublicKey()}
		if ok, err := VerifyAggregate(pks, msg, sig); err != nil || !ok {
			t.Fatalf("SignMessage signature rejected: ok=%v err=%v", ok, err)
		}
		viaSign, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(viaSign) != hex.EncodeToString(sig) {
			t.Fatal("Sign and SignMessage(HashMessage) disagree")
		}
		if ok, err := VerifyWithKey(pks[0], m, sig); err != nil || !ok {
			t.Fatalf("VerifyWithKey rejected: ok=%v err=%v", ok, err)
		}
		if ok, err := VerifyWithKey(pks[0], HashMessage([]byte("other")), sig); err != nil || ok {
			t.Fatalf("VerifyWithKey accepted another message: ok=%v err=%v", ok, err)
		}
	})
}

// TestWitnessPath: the provider's witness and preimage for an aggregate
// verify against its quorum key, and fail against a key missing a
// signer, for another message, and when their bytes do not decode or the
// preimage is another aggregate's.
func TestWitnessPath(t *testing.T) {
	msg := []byte("epoch tuple (d, d', R)")
	signers, pks := keyGen(t, 3)
	agg, err := Aggregate(signAll(t, signers, msg))
	if err != nil {
		t.Fatal(err)
	}
	apk, err := AggregateKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	m := HashMessage(msg)
	w, pre, err := ProveWithKey(apk, m, agg)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := VerifyWithWitness(apk, m, agg, w, pre); err != nil || !ok {
		t.Fatalf("witness rejected: ok=%v err=%v", ok, err)
	}
	fewer, err := AggregateKeys(pks[:2])
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := VerifyWithWitness(fewer, m, agg, w, pre); err != nil || ok {
		t.Fatalf("witness accepted against a key missing a signer: ok=%v err=%v", ok, err)
	}
	if ok, err := VerifyWithWitness(apk, HashMessage([]byte("other")), agg, w, pre); err != nil || ok {
		t.Fatalf("witness accepted for another message: ok=%v err=%v", ok, err)
	}
	if _, err := VerifyWithWitness(apk, m, agg, w[1:], pre); err == nil {
		t.Fatal("truncated witness decoded")
	}
	other, err := Aggregate(signAll(t, signers[:2], msg))
	if err != nil {
		t.Fatal(err)
	}
	_, otherPre, err := ProveWithKey(fewer, m, other)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]byte{"no": nil, "truncated": pre[1:], "another aggregate's": otherPre} {
		if _, err := VerifyWithWitness(apk, m, agg, w, p); err == nil {
			t.Fatalf("%s preimage accepted", name)
		}
	}
}

// TestHashHintPath: the provider's hint gives the HSM HashMessage's
// result, and a hint for another message or with bad bytes is refused.
func TestHashHintPath(t *testing.T) {
	msg := []byte("epoch tuple (d, d', R)")
	m, hint := ProveHash(msg)
	if len(hint) != bls.HashHintSize {
		t.Fatalf("hint is %d bytes, want %d", len(hint), bls.HashHintSize)
	}
	got, err := HashMessageHinted(msg, hint)
	if err != nil || got != m || got != HashMessage(msg) {
		t.Fatalf("hinted hash differs or refused: %v", err)
	}
	_, other := ProveHash([]byte("other"))
	for name, h := range map[string][]byte{"no": nil, "truncated": hint[1:], "another message's": other} {
		if _, err := HashMessageHinted(msg, h); err == nil {
			t.Fatalf("%s hint accepted", name)
		}
	}
}

func TestAggregateWrongMessageRejected(t *testing.T) {
	t.Run(Name, func(t *testing.T) {
		signers, pks := keyGen(t, 3)
		agg, err := Aggregate(signAll(t, signers, []byte("honest tuple")))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyAggregate(pks, []byte("forged tuple"), agg)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("aggregate verified under wrong message")
		}
	})
}

func TestMissingSignerRejected(t *testing.T) {
	t.Run(Name, func(t *testing.T) {
		msg := []byte("tuple")
		signers, pks := keyGen(t, 3)
		agg, err := Aggregate(signAll(t, signers, msg)[:2])
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyAggregate(pks, msg, agg)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatal("aggregate missing one signer verified against full key set")
		}
	})
}

func TestPublicKeySerialization(t *testing.T) {
	t.Run(Name, func(t *testing.T) {
		signer, err := KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := ParsePublicKey(signer.PublicKey().Bytes())
		if err != nil {
			t.Fatal(err)
		}
		msg := []byte("m")
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		agg, err := Aggregate([][]byte{sig})
		if err != nil {
			t.Fatal(err)
		}
		ok, err := VerifyAggregate([]PublicKey{parsed}, msg, agg)
		if err != nil || !ok {
			t.Fatalf("parsed key failed verification: %v", err)
		}
		if _, err := ParsePublicKey([]byte{1, 2, 3}); err == nil {
			t.Fatal("garbage public key parsed")
		}
	})
}

// Golden encodings of the BLS public key g2^7: the seed's unversioned
// 193-byte uncompressed format, which rosters no longer accept, and the
// version-1 compressed wire format (0x01 ‖ zcash 96-byte G2).
const (
	goldenLegacyPK = "04049cd1dbb2d2c3581e54c088135fef36505a6823d61b859437bfc79b617030" +
		"dc8b40e32bad1fa85b9c0f368af6d38d3c0d0273f6bf31ed37c3b8d68083ec3d" +
		"8e20b5f2cc170fa24b9b5be35b34ed013f9a921f1cad1644d4bdb14674247234" +
		"c808b7ae4dbf802c17a6648842922c9467e460a71c88d393ee7af356da123a2f" +
		"3619e80c3bdcc8e2b1da52f8cd9913ccdd05ecf93654b7a1885695aaeeb7caf4" +
		"1b0239dc45e1022be55d37111af2aecef87799638bec572de86a7437898efa70" +
		"20"
	goldenCompressedPK = "018d0273f6bf31ed37c3b8d68083ec3d8e20b5f2cc170fa24b9b5be35b34ed01" +
		"3f9a921f1cad1644d4bdb14674247234c8049cd1dbb2d2c3581e54c088135fef" +
		"36505a6823d61b859437bfc79b617030dc8b40e32bad1fa85b9c0f368af6d38d" +
		"3c"
)

func TestBLSPublicKeyWireFormats(t *testing.T) {
	legacy, err := hex.DecodeString(goldenLegacyPK)
	if err != nil {
		t.Fatal(err)
	}
	compressed, err := hex.DecodeString(goldenCompressedPK)
	if err != nil {
		t.Fatal(err)
	}
	// Must-reject: the seed's unversioned uncompressed encoding, although
	// it is a valid encoding of the same key for package bls...
	if pk, err := bls.G2FromBytes(legacy); err != nil || hex.EncodeToString(pk.BytesCompressed()) != goldenCompressedPK[2:] {
		t.Fatalf("legacy golden is not g2^7: %v", err)
	}
	if _, err := ParsePublicKey(legacy); err == nil {
		t.Fatal("seed's 193-byte roster key accepted")
	}
	// ...and the compressed key without its version byte.
	if _, err := ParsePublicKey(compressed[1:]); err == nil {
		t.Fatal("unversioned 96-byte roster key accepted")
	}
	fromCompressed, err := ParsePublicKey(compressed)
	if err != nil {
		t.Fatalf("compressed key rejected: %v", err)
	}
	if hex.EncodeToString(fromCompressed.Bytes()) != goldenCompressedPK {
		t.Fatal("compressed key did not round trip")
	}
	// Unknown version bytes fail closed.
	bad := append([]byte(nil), compressed...)
	bad[0] = 0x7f
	if _, err := ParsePublicKey(bad); err == nil {
		t.Fatal("unknown version byte accepted")
	}
}

// blsIdentityPK is the version-1 encoding of the G2 identity: the
// compressed and infinity flags, then zeros.
func blsIdentityPK() []byte {
	b := make([]byte, 1+bls.G2CompressedSize)
	b[0], b[1] = 0x01, 0xc0
	return b
}

// TestBLSRosterKeyRejectsIdentity: with the identity at index j of a
// roster, the quorum key of any signer set containing j equals the key
// without j, so a provider could count j as a signer that never signed.
func TestBLSRosterKeyRejectsIdentity(t *testing.T) {
	if _, err := ParsePublicKey(blsIdentityPK()); err == nil {
		t.Fatal("identity accepted as a roster key")
	}
}

// FuzzParsePublicKey drives the roster-key decoder, which parses
// provider-supplied bytes: it never panics, a key it accepts serializes
// back to the input byte for byte, and an accepted key is the 97-byte
// version-1 encoding of a point other than the identity. The corpus
// (testdata/fuzz) holds the must-reject seed and unversioned encodings and
// a P-256 key of a retired ECDSA-concat roster beside the compressed
// golden.
func FuzzParsePublicKey(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		pk, err := ParsePublicKey(b)
		if err != nil {
			return
		}
		if !bytes.Equal(pk.Bytes(), b) {
			t.Fatalf("accepted key re-serializes to %x, input %x", pk.Bytes(), b)
		}
		if len(b) != 1+bls.G2CompressedSize || b[0] != 0x01 || bytes.Equal(b, blsIdentityPK()) {
			t.Fatalf("accepted a key outside the version-1 non-identity form: %x", b)
		}
	})
}

func TestEmptyAggregateRejected(t *testing.T) {
	if _, err := Aggregate(nil); err == nil {
		t.Fatal("empty aggregate accepted")
	}
}

func TestBLSKeyAggregator(t *testing.T) {
	msg := []byte("epoch tuple")
	signers, pks := keyGen(t, 7)
	apk, err := AggregateKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-aggregated key verifies the aggregate signature on its own.
	aggSig, err := Aggregate(signAll(t, signers, msg))
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := VerifyAggregate([]PublicKey{apk}, msg, aggSig)
	if err != nil {
		t.Fatal(err)
	}
	if !ok2 {
		t.Fatal("pre-aggregated roster key rejected the aggregate signature")
	}
	if _, err := AggregateKeys(nil); err == nil {
		t.Fatal("empty roster aggregation accepted")
	}
	// A repeated key would let one signer's signature, aggregated twice,
	// verify as two signers'.
	if _, err := AggregateKeys([]PublicKey{pks[0], pks[1], pks[0]}); err == nil || !strings.Contains(err.Error(), "repeats an earlier key") {
		t.Fatalf("aggregate over a repeated key: err = %v", err)
	}
}

func TestVerifyAggregateRandomizedDifferential(t *testing.T) {
	// Randomized accept/reject semantics of the rewritten BLS backend,
	// checked against the seed implementation's documented behavior: a
	// complete signer set verifies, and every perturbation (missing
	// signer, extra signer, corrupted aggregate, wrong message) fails.
	// Byte-level agreement of signatures and keys with the pre-rewrite
	// code is pinned separately in bls.TestSeedByteCompatibility.
	for round := 0; round < 3; round++ {
		msg := make([]byte, 32)
		if _, err := rand.Read(msg); err != nil {
			t.Fatal(err)
		}
		n := 3 + round
		signers, pks := keyGen(t, n)
		sigs := signAll(t, signers, msg)
		agg, err := Aggregate(sigs)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := VerifyAggregate(pks, msg, agg); err != nil || !ok {
			t.Fatalf("round %d: complete signer set rejected (%v)", round, err)
		}
		if ok, _ := VerifyAggregate(pks[:n-1], msg, agg); ok {
			t.Fatalf("round %d: aggregate verified with a key missing", round)
		}
		partial, err := Aggregate(sigs[:n-1])
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := VerifyAggregate(pks, msg, partial); ok {
			t.Fatalf("round %d: partial aggregate verified against full set", round)
		}
		if ok, _ := VerifyAggregate(pks, append([]byte("x"), msg...), agg); ok {
			t.Fatalf("round %d: wrong message verified", round)
		}
	}
}

// TestCrossSchemeKeysRejected: a roster journaled by an ECDSA-concat fleet
// holds 33-byte P-256 keys; none parses as a roster key, so such a fleet
// cannot be read as a BLS one (docs/MIGRATION.md).
func TestCrossSchemeKeysRejected(t *testing.T) {
	kp, err := ecgroup.GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePublicKey(kp.PK.Bytes()); err == nil {
		t.Fatal("P-256 key accepted as a BLS roster key")
	}
}

func BenchmarkBLSAggregateVerify16(b *testing.B) {
	msg := []byte("tuple")
	signers, pks := keyGen(b, 16)
	agg, err := Aggregate(signAll(b, signers, msg))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := VerifyAggregate(pks, msg, agg)
		if err != nil || !ok {
			b.Fatal("verify failed")
		}
	}
}

// order3 is the encoding of (0, 2), a point of E of order 3: on the
// curve, outside G1.
func order3() []byte {
	b := make([]byte, bls.G1Size)
	b[0], b[bls.G1Size-1] = 0x04, 2
	return b
}

// fieldP is the BLS12-381 base field modulus p.
var fieldP, _ = new(big.Int).SetString("1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab", 16)

// negate returns the encoding of −P for an encoded finite point P.
func negate(b []byte) []byte {
	out := append([]byte(nil), b...)
	new(big.Int).Sub(fieldP, new(big.Int).SetBytes(b[1+48:])).FillBytes(out[1+48:])
	return out
}

// parseAll decodes raw signatures for AggregateParsed.
func parseAll(t testing.TB, raw [][]byte) []Signature {
	t.Helper()
	out := make([]Signature, len(raw))
	for i, b := range raw {
		s, err := ParseSignature(b)
		if err != nil {
			t.Fatalf("signature %d: %v", i, err)
		}
		out[i] = s
	}
	return out
}

// TestAggregateParsedIsolatesNonMembers: a sum with a summand on E
// outside G1 fails the one membership proof, and the summands' own tests
// then leave out exactly that summand: the aggregate is the honest
// signers', its preimage passes the HSMs' commit check, and it verifies.
func TestAggregateParsedIsolatesNonMembers(t *testing.T) {
	msg := []byte("epoch tuple (d, d', R)")
	signers, pks := keyGen(t, 4)
	sigs := signAll(t, signers, msg)
	honest, err := Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		raw     [][]byte
		outside string
	}{
		"the order-3 point": {[][]byte{sigs[0], sigs[1], order3(), sigs[2], sigs[3]}, "[2]"},
		"two copies of it":  {[][]byte{order3(), sigs[0], sigs[1], sigs[2], order3(), sigs[3]}, "[0 4]"},
	} {
		agg, pre, outside, err := AggregateParsed(parseAll(t, c.raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if fmt.Sprint(outside) != c.outside {
			t.Fatalf("%s: left out %v, want %s", name, outside, c.outside)
		}
		if !bytes.Equal(agg, honest) {
			t.Fatalf("%s: aggregate is not the honest signers'", name)
		}
		if _, err := bls.SignatureFromPreimage(agg, pre); err != nil {
			t.Fatalf("%s: preimage refused: %v", name, err)
		}
		if ok, err := VerifyAggregate(pks, msg, agg); err != nil || !ok {
			t.Fatalf("%s: aggregate rejected: ok=%v err=%v", name, ok, err)
		}
	}
	if _, err := Aggregate([][]byte{sigs[0], order3()}); err == nil || !strings.Contains(err.Error(), "signature 1: not in G1") {
		t.Fatalf("Aggregate over a non-member: err = %v", err)
	}
	if _, _, outside, err := AggregateParsed(parseAll(t, [][]byte{order3()})); err == nil || fmt.Sprint(outside) != "[0]" {
		t.Fatalf("a sum of non-members only: outside %v, err = %v", outside, err)
	}
}

// TestAggregateParsedCancellingTorsion: torsion parts that cancel leave a
// sum in G1, which passes as it is, with nothing left out. Only the sum is
// verified and journaled, and it is the honest one.
func TestAggregateParsedCancellingTorsion(t *testing.T) {
	msg := []byte("epoch tuple (d, d', R)")
	signers, _ := keyGen(t, 3)
	sigs := signAll(t, signers, msg)
	honest, err := Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	T := order3()
	agg, pre, outside, err := AggregateParsed(parseAll(t, [][]byte{sigs[0], T, sigs[1], negate(T), sigs[2]}))
	if err != nil || len(outside) != 0 || !bytes.Equal(agg, honest) {
		t.Fatalf("T and −T among honest summands: outside %v, honest sum %v, err = %v", outside, bytes.Equal(agg, honest), err)
	}
	if _, err := bls.SignatureFromPreimage(agg, pre); err != nil {
		t.Fatalf("preimage refused: %v", err)
	}
	// The identity sum of two summands that cancel is refused, though
	// each is in G1: the HSMs refuse an identity aggregate.
	if _, _, _, err := AggregateParsed(parseAll(t, [][]byte{sigs[0], negate(sigs[0])})); err == nil {
		t.Fatal("an identity aggregate proved")
	}
}

// TestParseSignatureRefusals: the fan-out's decoder refuses the identity,
// however encoded, and a point of another curve y² = x³ + b′, which the
// group law, blind to b, would carry into the sum.
func TestParseSignatureRefusals(t *testing.T) {
	junk := make([]byte, bls.G1Size)
	junk[7] = 0xff
	otherCurve := make([]byte, bls.G1Size) // (0, 1): y² = x³ + 1
	otherCurve[0], otherCurve[bls.G1Size-1] = 0x04, 1
	for name, b := range map[string][]byte{
		"identity":               make([]byte, bls.G1Size),
		"identity tag with junk": junk,
		"point of y² = x³ + 1":   otherCurve,
	} {
		if _, err := ParseSignature(b); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	if _, err := ParseSignature(order3()); err != nil {
		t.Fatalf("on-curve non-member refused at parse: %v", err)
	}
}

// FuzzParseSignature drives the fan-out's decoder, which parses HSM
// bytes: whatever it accepts is a finite point of E (checked with
// math/big) that re-encodes to its input.
func FuzzParseSignature(f *testing.F) {
	signers, _ := keyGen(f, 1)
	f.Add(signAll(f, signers, []byte("m"))[0])
	f.Add(order3())
	f.Add(make([]byte, bls.G1Size))
	f.Fuzz(func(t *testing.T, b []byte) {
		s, err := ParseSignature(b)
		if err != nil {
			return
		}
		if !bytes.Equal(s.s.Bytes(), b) {
			t.Fatalf("accepted signature re-encodes to %x, input %x", s.s.Bytes(), b)
		}
		p := fieldP
		x, y := new(big.Int).SetBytes(b[1:1+48]), new(big.Int).SetBytes(b[1+48:])
		lhs := new(big.Int).Mod(new(big.Int).Mul(y, y), p)
		rhs := new(big.Int).Mod(new(big.Int).Add(new(big.Int).Exp(x, big.NewInt(3), p), big.NewInt(4)), p)
		if len(b) != bls.G1Size || b[0] != 0x04 || lhs.Cmp(rhs) != 0 {
			t.Fatalf("accepted %x, which is not a finite point of E", b)
		}
	})
}

// epochRing is aggRing epochs' worth of 126 signatures, one message each,
// built once per process.
const aggRing = 8

var epochRing = sync.OnceValue(func() *[aggRing][][]byte {
	signers, err := KeyGenBatch(nil, rand.Reader, 126)
	if err != nil {
		panic(err)
	}
	var r [aggRing][][]byte
	for i := range r {
		msg := []byte(fmt.Sprintf("epoch header %d", i))
		for _, s := range signers {
			sig, err := s.Sign(msg)
			if err != nil {
				panic(err)
			}
			r[i] = append(r[i], sig)
		}
	}
	return &r
})

// BenchmarkParseAggregate126 is the provider's signature work per epoch
// of a 126-signer quorum: each signature decoded as the fan-out does, then
// the sum proved in G1 once, on a ring of epochs.
func BenchmarkParseAggregate126(b *testing.B) {
	r := epochRing()
	parsed := make([]Signature, 126)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, raw := range r[i%aggRing] {
			s, err := ParseSignature(raw)
			if err != nil {
				b.Fatal(err)
			}
			parsed[j] = s
		}
		if _, _, _, err := AggregateParsed(parsed); err != nil {
			b.Fatal(err)
		}
	}
}
