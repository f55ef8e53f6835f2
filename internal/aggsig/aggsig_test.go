package aggsig

import (
	"crypto/rand"
	"encoding/hex"
	"testing"

	"safetypin/internal/bls"
	"safetypin/internal/meter"
)

func schemes() []Scheme {
	return []Scheme{BLS(), BLSWithHashMode(bls.HashLegacy), ECDSAConcat()}
}

func TestAggregateRoundTripBothSchemes(t *testing.T) {
	for _, sc := range schemes() {
		t.Run(sc.Name(), func(t *testing.T) {
			msg := []byte("epoch tuple (d, d', R)")
			var sigs [][]byte
			var pks []PublicKey
			for i := 0; i < 5; i++ {
				signer, err := sc.KeyGen(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				sig, err := signer.Sign(msg)
				if err != nil {
					t.Fatal(err)
				}
				sigs = append(sigs, sig)
				pks = append(pks, signer.PublicKey())
			}
			agg, err := sc.Aggregate(sigs)
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
}

// TestHashedMessagePath drives SignMessage and VerifyWithKey on one hashed
// message for every scheme: the signature verifies like Sign's (and is
// byte-identical to it where signing is deterministic), and a message
// hashed by another scheme — or by BLS under the other hash mode — is
// refused rather than signed or checked.
func TestHashedMessagePath(t *testing.T) {
	msg := []byte("epoch tuple (d, d', R)")
	for _, sc := range schemes() {
		t.Run(sc.Name(), func(t *testing.T) {
			signer, err := sc.KeyGen(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			m := sc.HashMessage(msg)
			sig, err := signer.SignMessage(m)
			if err != nil {
				t.Fatal(err)
			}
			pks := []PublicKey{signer.PublicKey()}
			if ok, err := sc.VerifyAggregate(pks, msg, sig); err != nil || !ok {
				t.Fatalf("SignMessage signature rejected: ok=%v err=%v", ok, err)
			}
			viaSign, err := signer.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			if sc.Name() != "ecdsa-concat" && hex.EncodeToString(viaSign) != hex.EncodeToString(sig) {
				t.Fatal("Sign and SignMessage(HashMessage) disagree")
			}
			for _, s := range [][]byte{sig, viaSign} {
				if ok, err := sc.VerifyWithKey(pks[0], m, s); err != nil || !ok {
					t.Fatalf("VerifyWithKey rejected: ok=%v err=%v", ok, err)
				}
			}
			if ok, err := sc.VerifyWithKey(pks[0], sc.HashMessage([]byte("other")), sig); err != nil || ok {
				t.Fatalf("VerifyWithKey accepted another message: ok=%v err=%v", ok, err)
			}
			for _, other := range schemes() {
				if other.Name() == sc.Name() {
					continue
				}
				if _, err := signer.SignMessage(other.HashMessage(msg)); err == nil {
					t.Fatalf("signed a message hashed by %s", other.Name())
				}
				if ok, err := sc.VerifyWithKey(pks[0], other.HashMessage(msg), sig); err == nil || ok {
					t.Fatalf("checked a message hashed by %s", other.Name())
				}
			}
		})
	}
}

func TestAggregateWrongMessageRejected(t *testing.T) {
	for _, sc := range schemes() {
		t.Run(sc.Name(), func(t *testing.T) {
			var sigs [][]byte
			var pks []PublicKey
			for i := 0; i < 3; i++ {
				signer, err := sc.KeyGen(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				sig, err := signer.Sign([]byte("honest tuple"))
				if err != nil {
					t.Fatal(err)
				}
				sigs = append(sigs, sig)
				pks = append(pks, signer.PublicKey())
			}
			agg, err := sc.Aggregate(sigs)
			if err != nil {
				t.Fatal(err)
			}
			ok, err := sc.VerifyAggregate(pks, []byte("forged tuple"), agg)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("aggregate verified under wrong message")
			}
		})
	}
}

func TestMissingSignerRejected(t *testing.T) {
	for _, sc := range schemes() {
		t.Run(sc.Name(), func(t *testing.T) {
			msg := []byte("tuple")
			var sigs [][]byte
			var pks []PublicKey
			for i := 0; i < 3; i++ {
				signer, err := sc.KeyGen(rand.Reader)
				if err != nil {
					t.Fatal(err)
				}
				sig, err := signer.Sign(msg)
				if err != nil {
					t.Fatal(err)
				}
				sigs = append(sigs, sig)
				pks = append(pks, signer.PublicKey())
			}
			agg, err := sc.Aggregate(sigs[:2])
			if err != nil {
				t.Fatal(err)
			}
			ok, err := sc.VerifyAggregate(pks, msg, agg)
			if err != nil && sc.Name() == "bls12381-multisig" {
				t.Fatal(err)
			}
			if ok {
				t.Fatal("aggregate missing one signer verified against full key set")
			}
		})
	}
}

func TestPublicKeySerialization(t *testing.T) {
	for _, sc := range schemes() {
		t.Run(sc.Name(), func(t *testing.T) {
			signer, err := sc.KeyGen(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			raw := signer.PublicKey().Bytes()
			parsed, err := sc.ParsePublicKey(raw)
			if err != nil {
				t.Fatal(err)
			}
			msg := []byte("m")
			sig, err := signer.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			agg, err := sc.Aggregate([][]byte{sig})
			if err != nil {
				t.Fatal(err)
			}
			ok, err := sc.VerifyAggregate([]PublicKey{parsed}, msg, agg)
			if err != nil || !ok {
				t.Fatalf("parsed key failed verification: %v", err)
			}
			if _, err := sc.ParsePublicKey([]byte{1, 2, 3}); err == nil {
				t.Fatal("garbage public key parsed")
			}
		})
	}
}

// Golden encodings of the BLS public key g2^7: the seed's unversioned
// 193-byte uncompressed format and the version-1 compressed wire format
// (0x01 ‖ zcash 96-byte G2). Both must parse to the same key forever.
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
	// Seed compatibility: the unversioned uncompressed encoding still
	// parses...
	fromLegacy, err := BLS().ParsePublicKey(legacy)
	if err != nil {
		t.Fatalf("legacy uncompressed key rejected: %v", err)
	}
	// ...and re-serializes to the versioned compressed wire format.
	if got := hex.EncodeToString(fromLegacy.Bytes()); got != goldenCompressedPK {
		t.Fatalf("legacy key re-serialization:\n got %s\nwant %s", got, goldenCompressedPK)
	}
	fromCompressed, err := BLS().ParsePublicKey(compressed)
	if err != nil {
		t.Fatalf("compressed key rejected: %v", err)
	}
	if hex.EncodeToString(fromCompressed.Bytes()) != goldenCompressedPK {
		t.Fatal("compressed key did not round trip")
	}
	// The compressed format roughly halves roster bytes.
	if len(compressed)*2 >= len(legacy)+2 {
		t.Fatalf("compressed key (%d bytes) is not about half of legacy (%d bytes)",
			len(compressed), len(legacy))
	}
	// Unknown version bytes fail closed.
	bad := append([]byte(nil), compressed...)
	bad[0] = 0x7f
	if _, err := BLS().ParsePublicKey(bad); err == nil {
		t.Fatal("unknown version byte accepted")
	}
}

func TestEmptyAggregateRejected(t *testing.T) {
	for _, sc := range schemes() {
		if _, err := sc.Aggregate(nil); err == nil {
			t.Fatalf("%s: empty aggregate accepted", sc.Name())
		}
	}
}

func TestMeterCosts(t *testing.T) {
	// BLS verification cost must be independent of the signer count;
	// ECDSA-concat must be linear. This is the ablation of §6.2.
	mBLS10 := meter.New()
	BLS().MeterVerify(mBLS10, 10)
	mBLS1000 := meter.New()
	BLS().MeterVerify(mBLS1000, 1000)
	for _, op := range []meter.Op{meter.OpMillerLoop, meter.OpFinalExp} {
		if mBLS10.Get(op) != mBLS1000.Get(op) {
			t.Fatalf("BLS verify %s cost depends on signer count", op)
		}
	}
	// The multi-pairing shape: two Miller loops share one final
	// exponentiation (cheaper than the 2 full pairings charged before).
	if mBLS10.Get(meter.OpMillerLoop) != 2 || mBLS10.Get(meter.OpFinalExp) != 1 {
		t.Fatal("BLS verify should meter as 2 Miller loops + 1 final exp")
	}
	// Roster aggregation and wire-parse costs are metered explicitly:
	// n−1 batch-affine G2 additions plus one subgroup check per verify.
	if mBLS10.Get(meter.OpG2Add) != 9 || mBLS1000.Get(meter.OpG2Add) != 999 {
		t.Fatal("BLS verify should meter n−1 roster additions")
	}
	if mBLS10.Get(meter.OpSubgroupCheck) != 1 {
		t.Fatal("BLS verify should meter the signature-parse subgroup check")
	}
	mE := meter.New()
	ECDSAConcat().MeterVerify(mE, 1000)
	if mE.Get(meter.OpECDSAVerify) != 1000 {
		t.Fatal("ECDSA-concat verify cost not linear")
	}
}

func TestBLSKeyAggregator(t *testing.T) {
	sc := BLS()
	msg := []byte("epoch tuple")
	var sigs [][]byte
	var pks []PublicKey
	for i := 0; i < 7; i++ {
		signer, err := sc.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
		pks = append(pks, signer.PublicKey())
	}
	apk, err := sc.AggregateKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	// The pre-aggregated key verifies the aggregate signature on its own.
	aggSig, err := sc.Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	ok2, err := sc.VerifyAggregate([]PublicKey{apk}, msg, aggSig)
	if err != nil {
		t.Fatal(err)
	}
	if !ok2 {
		t.Fatal("pre-aggregated roster key rejected the aggregate signature")
	}
	if _, err := sc.AggregateKeys(nil); err == nil {
		t.Fatal("empty roster aggregation accepted")
	}
}

// TestECDSAConcatKeyList pins ECDSA-concat's slow key aggregation: the
// aggregate key is the ordered key list, a repeated key is refused,
// subtraction removes keys by equality and keeps the rest in order, and
// signature i is checked against key i.
func TestECDSAConcatKeyList(t *testing.T) {
	sc := ECDSAConcat()
	msg := []byte("epoch tuple")
	var sigs [][]byte
	var pks []PublicKey
	var concat []byte
	for i := 0; i < 4; i++ {
		signer, err := sc.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := signer.Sign(msg)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
		pks = append(pks, signer.PublicKey())
		concat = append(concat, signer.PublicKey().Bytes()...)
	}
	full, err := sc.AggregateKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(full.Bytes()) != hex.EncodeToString(concat) {
		t.Fatal("aggregate key is not the concatenation of the keys in order")
	}
	if _, err := sc.AggregateKeys([]PublicKey{pks[0], pks[1], pks[0]}); err == nil {
		t.Fatal("aggregate over a repeated key accepted")
	}

	rest, err := sc.SubtractKeys(full, []PublicKey{pks[2], pks[0]})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sc.AggregateKeys([]PublicKey{pks[1], pks[3]})
	if err != nil {
		t.Fatal(err)
	}
	if hex.EncodeToString(rest.Bytes()) != hex.EncodeToString(want.Bytes()) {
		t.Fatal("subtraction did not keep the remaining keys in order")
	}
	if _, err := sc.SubtractKeys(rest, []PublicKey{pks[0]}); err == nil {
		t.Fatal("subtracting a key the aggregate does not hold succeeded")
	}

	m := sc.HashMessage(msg)
	agg, err := sc.Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sc.VerifyWithKey(full, m, agg); err != nil || !ok {
		t.Fatalf("ordered aggregate rejected: ok=%v err=%v", ok, err)
	}
	swapped, err := sc.Aggregate([][]byte{sigs[1], sigs[0], sigs[2], sigs[3]})
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := sc.VerifyWithKey(full, m, swapped); err != nil || ok {
		t.Fatalf("aggregate in another signer order accepted: ok=%v err=%v", ok, err)
	}
	// VerifyAggregate takes the signer order from its key list.
	if ok, err := sc.VerifyAggregate([]PublicKey{pks[1], pks[0], pks[2], pks[3]}, msg, swapped); err != nil || !ok {
		t.Fatalf("aggregate in its listed signer order rejected: ok=%v err=%v", ok, err)
	}
}

func TestVerifyAggregateRandomizedDifferential(t *testing.T) {
	// Randomized accept/reject semantics of the rewritten BLS backend,
	// checked against the seed implementation's documented behavior: a
	// complete signer set verifies, and every perturbation (missing
	// signer, extra signer, corrupted aggregate, wrong message) fails.
	// Byte-level agreement of signatures and keys with the pre-rewrite
	// code is pinned separately in bls.TestSeedByteCompatibility.
	sc := BLS()
	for round := 0; round < 3; round++ {
		msg := make([]byte, 32)
		if _, err := rand.Read(msg); err != nil {
			t.Fatal(err)
		}
		n := 3 + round
		var sigs [][]byte
		var pks []PublicKey
		for i := 0; i < n; i++ {
			signer, err := sc.KeyGen(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			sig, err := signer.Sign(msg)
			if err != nil {
				t.Fatal(err)
			}
			sigs = append(sigs, sig)
			pks = append(pks, signer.PublicKey())
		}
		agg, err := sc.Aggregate(sigs)
		if err != nil {
			t.Fatal(err)
		}
		if ok, err := sc.VerifyAggregate(pks, msg, agg); err != nil || !ok {
			t.Fatalf("round %d: complete signer set rejected (%v)", round, err)
		}
		if ok, _ := sc.VerifyAggregate(pks[:n-1], msg, agg); ok {
			t.Fatalf("round %d: aggregate verified with a key missing", round)
		}
		partial, err := sc.Aggregate(sigs[:n-1])
		if err != nil {
			t.Fatal(err)
		}
		if ok, _ := sc.VerifyAggregate(pks, msg, partial); ok {
			t.Fatalf("round %d: partial aggregate verified against full set", round)
		}
		if ok, _ := sc.VerifyAggregate(pks, append([]byte("x"), msg...), agg); ok {
			t.Fatalf("round %d: wrong message verified", round)
		}
	}
}

func TestCrossSchemeKeysRejected(t *testing.T) {
	blsSigner, err := BLS().KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := blsSigner.Sign([]byte("m"))
	if err != nil {
		t.Fatal(err)
	}
	agg, err := BLS().Aggregate([][]byte{sig})
	if err != nil {
		t.Fatal(err)
	}
	eSigner, err := ECDSAConcat().KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BLS().VerifyAggregate([]PublicKey{eSigner.PublicKey()}, []byte("m"), agg); err == nil {
		t.Fatal("ECDSA key accepted by BLS verifier")
	}
}

func BenchmarkBLSAggregateVerify16(b *testing.B) {
	benchVerify(b, BLS(), 16)
}

func BenchmarkECDSAConcatVerify16(b *testing.B) {
	benchVerify(b, ECDSAConcat(), 16)
}

func benchVerify(b *testing.B, sc Scheme, n int) {
	msg := []byte("tuple")
	var sigs [][]byte
	var pks []PublicKey
	for i := 0; i < n; i++ {
		signer, err := sc.KeyGen(rand.Reader)
		if err != nil {
			b.Fatal(err)
		}
		sig, err := signer.Sign(msg)
		if err != nil {
			b.Fatal(err)
		}
		sigs = append(sigs, sig)
		pks = append(pks, signer.PublicKey())
	}
	agg, err := sc.Aggregate(sigs)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := sc.VerifyAggregate(pks, msg, agg)
		if err != nil || !ok {
			b.Fatal("verify failed")
		}
	}
}
