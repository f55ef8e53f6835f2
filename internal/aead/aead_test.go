package aead

import (
	"bytes"
	"crypto/rand"
	"testing"
	"testing/quick"
)

func TestRoundTrip(t *testing.T) {
	key := MustNewKey()
	err := quick.Check(func(msg, ad []byte) bool {
		box, err := Seal(key, msg, ad)
		if err != nil {
			return false
		}
		got, err := Open(key, box, ad)
		return err == nil && bytes.Equal(got, msg)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestAES128KeysAccepted(t *testing.T) {
	key := make([]byte, 16)
	box, err := Seal(key, []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, box, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBadKeyLengthRejected(t *testing.T) {
	if _, err := Seal(make([]byte, 15), []byte("m"), nil); err == nil {
		t.Fatal("expected key-length rejection")
	}
}

func TestWrongKeyFails(t *testing.T) {
	box, err := Seal(MustNewKey(), []byte("m"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(MustNewKey(), box, nil); err == nil {
		t.Fatal("wrong key opened box")
	}
}

func TestWrongADFails(t *testing.T) {
	key := MustNewKey()
	box, err := Seal(key, []byte("m"), []byte("ctx-a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(key, box, []byte("ctx-b")); err == nil {
		t.Fatal("wrong ad opened box")
	}
}

func TestTamperFails(t *testing.T) {
	key := MustNewKey()
	box, err := Seal(key, []byte("message"), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(box); i += 7 {
		mut := append([]byte{}, box...)
		mut[i] ^= 0x80
		if _, err := Open(key, mut, nil); err == nil {
			t.Fatalf("tampering byte %d went undetected", i)
		}
	}
}

func TestShortBoxRejected(t *testing.T) {
	if _, err := Open(MustNewKey(), make([]byte, Overhead-1), nil); err == nil {
		t.Fatal("short box accepted")
	}
}

func TestNoncesFresh(t *testing.T) {
	key := MustNewKey()
	a, _ := Seal(key, []byte("m"), nil)
	b, _ := Seal(key, []byte("m"), nil)
	if bytes.Equal(a, b) {
		t.Fatal("two seals produced identical boxes (nonce reuse)")
	}
}

func BenchmarkSeal1K(b *testing.B) {
	key := MustNewKey()
	msg := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		if _, err := Seal(key, msg, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// MustNewKey is NewKey from crypto/rand, panicking on entropy failure.
func MustNewKey() []byte {
	key, err := NewKey(rand.Reader)
	if err != nil {
		panic(err)
	}
	return key
}
