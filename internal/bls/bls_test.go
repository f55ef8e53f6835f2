package bls

import (
	"crypto/rand"
	"math/big"
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
// from another message does not verify.
func TestHashedMessageReuse(t *testing.T) {
	sk, pk, err := GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("epoch header")
	m := HashMessage(msg)
	if !m.h.z.isOne() || !m.h.Equal(HashToG1(HashRFC9380, sigDomain, msg)) {
		t.Fatal("hashed message is not H(m) in affine form")
	}
	sig := sk.SignMessage(m)
	if string(sig.Bytes()) != string(sk.Sign(msg).Bytes()) {
		t.Fatal("SignMessage and Sign disagree")
	}
	for i := 0; i < 2; i++ {
		if ok, err := pk.VerifyMessage(m, sig); err != nil || !ok {
			t.Fatal("reused message rejected a valid signature")
		}
	}
	if ok, _ := pk.VerifyMessage(HashMessage([]byte("other header")), sig); ok {
		t.Fatal("signature verified against another message's hash")
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

// Sign signs msg.
func (sk *SecretKey) Sign(msg []byte) *Signature {
	return sk.SignMessage(HashMessage(msg))
}

// Verify checks a signature on msg.
func (pk *PublicKey) Verify(msg []byte, sig *Signature) (bool, error) {
	return pk.VerifyMessage(HashMessage(msg), sig)
}

// Equal reports public-key equality.
func (pk *PublicKey) Equal(other *PublicKey) bool {
	return other != nil && pk.p.Equal(other.p)
}

// PublicKeyFromBytes decodes and validates an uncompressed public key.
func PublicKeyFromBytes(b []byte) (*PublicKey, error) {
	p, err := G2FromBytes(b)
	if err != nil {
		return nil, err
	}
	return &PublicKey{p: p}, nil
}

// rOrder is the group order r (rLimbs as a big.Int).
var rOrder = mustBig("73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001")

func mustBig(h string) *big.Int {
	v, ok := new(big.Int).SetString(h, 16)
	if !ok {
		panic("bls: bad constant " + h)
	}
	return v
}

// Order returns a copy of the group order r.
func Order() *big.Int { return new(big.Int).Set(rOrder) }
