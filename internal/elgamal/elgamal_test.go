package elgamal

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"

	"safetypin/internal/ecgroup"
)

func keypair(t *testing.T) ecgroup.KeyPair {
	t.Helper()
	kp, err := ecgroup.GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	return kp
}

func TestRoundTrip(t *testing.T) {
	kp := keypair(t)
	msg := []byte("the AES transport key share")
	ad := []byte("user=alice|salt=xyz")
	ct, err := Encrypt(kp.PK, msg, ad, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(kp.SK, ct, ad)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("round-trip mismatch")
	}
}

func TestRoundTripQuick(t *testing.T) {
	kp := keypair(t)
	err := quick.Check(func(msg, ad []byte) bool {
		ct, err := Encrypt(kp.PK, msg, ad, rand.Reader)
		if err != nil {
			return false
		}
		got, err := Decrypt(kp.SK, ct, ad)
		return err == nil && bytes.Equal(got, msg)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestWrongKeyFails(t *testing.T) {
	kp1, kp2 := keypair(t), keypair(t)
	ct, err := Encrypt(kp1.PK, []byte("secret"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(kp2.SK, ct, nil); err == nil {
		t.Fatal("decryption with wrong key succeeded")
	}
}

func TestWrongADFails(t *testing.T) {
	// Domain separation: a ciphertext bound to user A must not decrypt in
	// user B's context even with the right key.
	kp := keypair(t)
	ct, err := Encrypt(kp.PK, []byte("secret"), []byte("user=alice"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decrypt(kp.SK, ct, []byte("user=bob")); err == nil {
		t.Fatal("decryption under wrong domain separation succeeded")
	}
}

func TestTamperedBoxFails(t *testing.T) {
	kp := keypair(t)
	ct, err := Encrypt(kp.PK, []byte("secret"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	ct.Box[0] ^= 1
	if _, err := Decrypt(kp.SK, ct, nil); err == nil {
		t.Fatal("tampered ciphertext decrypted")
	}
}

func TestTamperedNonceFails(t *testing.T) {
	kp := keypair(t)
	ct, err := Encrypt(kp.PK, []byte("secret"), nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := ecgroup.RandomScalar(rand.Reader)
	ct.R = ecgroup.BaseMul(r)
	if _, err := Decrypt(kp.SK, ct, nil); err == nil {
		t.Fatal("ciphertext with replaced nonce decrypted")
	}
}

func TestCiphertextsAreRandomized(t *testing.T) {
	kp := keypair(t)
	a, _ := Encrypt(kp.PK, []byte("m"), nil, rand.Reader)
	b, _ := Encrypt(kp.PK, []byte("m"), nil, rand.Reader)
	if bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two encryptions of the same message are identical")
	}
}

func TestKeyPrivacyShape(t *testing.T) {
	// Key privacy (the property LHE relies on): a ciphertext must not
	// contain the recipient public key in the clear. Structural check: the
	// pk bytes do not appear in the serialized ciphertext.
	kp := keypair(t)
	ct, _ := Encrypt(kp.PK, []byte("m"), nil, rand.Reader)
	if bytes.Contains(ct.Bytes(), kp.PK.Bytes()) {
		t.Fatal("ciphertext embeds the recipient public key")
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	kp := keypair(t)
	ct, err := Encrypt(kp.PK, []byte("hello hello"), []byte("ad"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := CiphertextFromBytes(ct.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(kp.SK, parsed, []byte("ad"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello hello" {
		t.Fatal("serialized round-trip mismatch")
	}
}

func TestCiphertextFromBytesRejects(t *testing.T) {
	if _, err := CiphertextFromBytes([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected rejection of short ciphertext")
	}
	bad := make([]byte, Overhead+4)
	for i := range bad {
		bad[i] = 0xFF
	}
	if _, err := CiphertextFromBytes(bad); err == nil {
		t.Fatal("expected rejection of invalid point")
	}
}

func TestEncryptToIdentityRejected(t *testing.T) {
	if _, err := Encrypt(ecgroup.Identity(), []byte("m"), nil, rand.Reader); err == nil {
		t.Fatal("expected refusal to encrypt to identity")
	}
}

func TestDecryptIdentityNonceRejected(t *testing.T) {
	kp := keypair(t)
	ct := Ciphertext{R: ecgroup.Identity(), Box: make([]byte, 32)}
	if _, err := Decrypt(kp.SK, ct, nil); err == nil {
		t.Fatal("expected rejection of identity nonce")
	}
}

func TestEmptyMessage(t *testing.T) {
	kp := keypair(t)
	ct, err := Encrypt(kp.PK, nil, nil, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decrypt(kp.SK, ct, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Fatal("empty message round-trip produced data")
	}
}

func BenchmarkEncrypt(b *testing.B) {
	kp, _ := ecgroup.GenerateKeyPair(rand.Reader)
	msg := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encrypt(kp.PK, msg, nil, rand.Reader); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecrypt(b *testing.B) {
	kp, _ := ecgroup.GenerateKeyPair(rand.Reader)
	ct, _ := Encrypt(kp.PK, make([]byte, 64), nil, rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decrypt(kp.SK, ct, nil); err != nil {
			b.Fatal(err)
		}
	}
}
