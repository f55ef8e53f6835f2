package bls

import (
	"crypto/rand"
	"testing"
)

func TestSignVerify(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("log update: d -> d'")
	sig := sk.Sign(msg)
	ok, err := pk.Verify(msg, sig)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid signature rejected")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sig := sk.Sign([]byte("msg-a"))
	ok, err := pk.Verify([]byte("msg-b"), sig)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("signature verified under wrong message")
	}
}

// TestHashedMessageReuse pins the hash-once path: a Message is affine,
// signs to the bytes Sign produces, verifies repeatedly, and one hashed
// under the other mode does not verify.
func TestHashedMessageReuse(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("epoch header")
	for _, mode := range []HashMode{HashRFC9380, HashLegacy} {
		m := HashMessage(mode, msg)
		if !m.h.z.isOne() || !m.h.Equal(HashToG1(mode, sigDomain(mode), msg)) {
			t.Fatalf("mode %v: hashed message is not H(m) in affine form", mode)
		}
		sig := sk.SignMessage(m)
		if string(sig.Bytes()) != string(sk.SignWithMode(mode, msg).Bytes()) {
			t.Fatalf("mode %v: SignMessage and SignWithMode disagree", mode)
		}
		for i := 0; i < 2; i++ {
			if ok, err := pk.VerifyMessage(m, sig); err != nil || !ok {
				t.Fatalf("mode %v: reused message rejected a valid signature", mode)
			}
		}
		other := HashLegacy
		if mode == HashLegacy {
			other = HashRFC9380
		}
		if ok, _ := pk.VerifyMessage(HashMessage(other, msg), sig); ok {
			t.Fatalf("mode %v: signature verified against the other mode's hash", mode)
		}
	}
}

func TestVerifyRejectsWrongKey(t *testing.T) {
	sk, _, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	_, pk2, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sig := sk.Sign([]byte("msg"))
	ok, err := pk2.Verify([]byte("msg"), sig)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("signature verified under wrong key")
	}
}

func TestAggregate(t *testing.T) {
	msg := []byte("the shared log-update tuple")
	const n = 4
	var sigs []*Signature
	var pks []*PublicKey
	for i := 0; i < n; i++ {
		sk, pk, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sk.Sign(msg))
		pks = append(pks, pk)
	}
	agg, err := AggregateSignatures(sigs)
	if err != nil {
		t.Fatal(err)
	}
	apk, err := AggregatePublicKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := apk.Verify(msg, agg)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("aggregate signature rejected")
	}
}

func TestAggregateMissingSignerFails(t *testing.T) {
	msg := []byte("tuple")
	var sigs []*Signature
	var pks []*PublicKey
	for i := 0; i < 3; i++ {
		sk, pk, err := GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sk.Sign(msg))
		pks = append(pks, pk)
	}
	// Aggregate only two signatures but all three keys.
	agg, err := AggregateSignatures(sigs[:2])
	if err != nil {
		t.Fatal(err)
	}
	apk, err := AggregatePublicKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := apk.Verify(msg, agg)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("aggregate missing a signer verified")
	}
}

func TestProofOfPossession(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	pop := sk.ProvePossession(pk)
	ok, err := VerifyPossession(pk, pop)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("valid PoP rejected")
	}
	// A PoP for a different key must not transfer.
	_, pk2, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ok, err = VerifyPossession(pk2, pop)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("PoP verified for foreign key")
	}
}

func TestSignatureSerialization(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sig := sk.Sign([]byte("m"))
	parsed, err := SignatureFromBytes(sig.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	ok, err := pk.Verify([]byte("m"), parsed)
	if err != nil || !ok {
		t.Fatal("serialized signature failed to verify")
	}
	pkParsed, err := PublicKeyFromBytes(pk.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !pkParsed.Equal(pk) {
		t.Fatal("public key round-trip failed")
	}
}

func TestNilAndInfinityRejected(t *testing.T) {
	_, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := pk.Verify([]byte("m"), nil); ok {
		t.Fatal("nil signature verified")
	}
	if ok, _ := pk.Verify([]byte("m"), &Signature{p: g1Infinity()}); ok {
		t.Fatal("infinity signature verified")
	}
	if _, err := AggregateSignatures(nil); err == nil {
		t.Fatal("empty aggregation accepted")
	}
	if _, err := AggregatePublicKeys(nil); err == nil {
		t.Fatal("empty key aggregation accepted")
	}
}

func BenchmarkSign(b *testing.B) {
	sk, _, err := GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("log tuple")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sk.Sign(msg)
	}
}

func BenchmarkVerify(b *testing.B) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("log tuple")
	sig := sk.Sign(msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := pk.Verify(msg, sig)
		if err != nil || !ok {
			b.Fatal("verify failed")
		}
	}
}

// BenchmarkVerifyPreparedKey is the HSM's per-epoch commit check: Verify
// of a signature parsed off the wire against a long-lived key whose lines
// are already cached. BenchmarkVerify above converges to the same figure
// once b.N amortizes its first call.
func BenchmarkVerifyPreparedKey(b *testing.B) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("log tuple")
	sig, err := SignatureFromBytes(sk.Sign(msg).Bytes())
	if err != nil {
		b.Fatal(err)
	}
	pk.prepared()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := pk.Verify(msg, sig)
		if err != nil || !ok {
			b.Fatal("verify failed")
		}
	}
}
