package lhe

import (
	"fmt"
	"io"

	"safetypin/internal/ecgroup"
	"safetypin/internal/elgamal"
)

// elgamal_test.go is the lightweight fleet the lhe tests and the codec
// golden encrypt to.

// ElGamalFleet is the client-side view of a fleet's plain hashed-ElGamal
// public keys. It implements Encryptor without forward secrecy; the
// production configuration uses the puncturable scheme in package bfe, which
// satisfies the same interfaces.
type ElGamalFleet struct {
	keys []ecgroup.Point
}

// NewElGamalFleet wraps the N HSM public keys.
func NewElGamalFleet(keys []ecgroup.Point) *ElGamalFleet {
	return &ElGamalFleet{keys: keys}
}

// EncryptTo implements Encryptor. Plain ElGamal shows nothing derived from
// its inputs in the clear, so series goes unused.
func (f *ElGamalFleet) EncryptTo(index int, _, msg, ad []byte, rng io.Reader) ([]byte, error) {
	if index < 0 || index >= len(f.keys) {
		return nil, fmt.Errorf("lhe: HSM index %d out of range [0,%d)", index, len(f.keys))
	}
	ct, err := elgamal.Encrypt(f.keys[index], msg, ad, rng)
	if err != nil {
		return nil, err
	}
	return ct.Bytes(), nil
}

// ElGamalDecrypter is the HSM-side decrypter for plain hashed ElGamal.
type ElGamalDecrypter struct {
	kp ecgroup.KeyPair
}

// NewElGamalDecrypter wraps an HSM keypair.
func NewElGamalDecrypter(kp ecgroup.KeyPair) *ElGamalDecrypter {
	return &ElGamalDecrypter{kp: kp}
}

// Decrypt implements ShareDecrypter.
func (d *ElGamalDecrypter) Decrypt(ct, ad []byte) ([]byte, error) {
	parsed, err := elgamal.CiphertextFromBytes(ct)
	if err != nil {
		return nil, err
	}
	return elgamal.Decrypt(d.kp.SK, parsed, ad)
}

var (
	_ Encryptor      = (*ElGamalFleet)(nil)
	_ ShareDecrypter = (*ElGamalDecrypter)(nil)
)
