package aggsig

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"strings"
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
	if pk, err := bls.PublicKeyFromBytes(legacy); err != nil || hex.EncodeToString(pk.BytesCompressed()) != goldenCompressedPK[2:] {
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
