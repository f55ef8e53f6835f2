package lhe

import (
	"bytes"
	"encoding/hex"
	"os"
	"strings"
	"testing"

	"safetypin/internal/ecgroup"
	"safetypin/internal/prg"
)

// goldenCiphertext encrypts under fixed keys and fixed coins, so its
// encoding is the same in every run. aead.Seal draws its own nonce, so the
// sealed message is replaced by fixed bytes.
func goldenCiphertext(t *testing.T) *Ciphertext {
	t.Helper()
	kps, err := ecgroup.GenerateKeyPairs(prg.New("lhe/golden/keys", nil), 8)
	if err != nil {
		t.Fatal(err)
	}
	pks := make([]ecgroup.Point, len(kps))
	for i, kp := range kps {
		pks[i] = kp.PK
	}
	p := mustParams(t, 8, 4, 2)
	salt := bytes.Repeat([]byte{5}, SaltSize)
	ct, err := p.EncryptWithSalt(NewElGamalFleet(pks), "alice", "123456", salt, []byte("m"), prg.New("lhe/golden/coins", nil))
	if err != nil {
		t.Fatal(err)
	}
	ct.Sealed = []byte("sealed message")
	return ct
}

// TestCiphertextGolden pins the ciphertext encoding byte for byte: a
// stored backup must parse after any rewrite of the codec.
func TestCiphertextGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/ciphertext.hex")
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	ct := goldenCiphertext(t)
	if got := ct.Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("ciphertext encoding drifted:\n got %x\nwant %x", got, want)
	}
	back, err := CiphertextFromBytes(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(back.Bytes(), want) {
		t.Fatal("golden ciphertext does not re-encode to itself")
	}
}
