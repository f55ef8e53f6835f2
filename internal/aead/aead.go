package aead

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
)

// KeySize is the AES-256 key length used for all symmetric keys.
const KeySize = 32

// NonceSize is the GCM nonce length.
const NonceSize = 12

// Overhead is the ciphertext expansion: nonce plus GCM tag.
const Overhead = NonceSize + 16

// NewKey returns a fresh random key read from rng.
func NewKey(rng io.Reader) ([]byte, error) {
	key := make([]byte, KeySize)
	if _, err := io.ReadFull(rng, key); err != nil {
		return nil, fmt.Errorf("aead: generating key: %w", err)
	}
	return key, nil
}

//spin:secret key
func newGCM(key []byte) (cipher.AEAD, error) {
	if len(key) != KeySize && len(key) != 16 {
		return nil, fmt.Errorf("aead: key must be 16 or %d bytes, got %d", KeySize, len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

// Seal encrypts plaintext under key, binding ad, with a fresh random nonce
// prepended to the output.
//
//spin:secret key plaintext
func Seal(key, plaintext, ad []byte) ([]byte, error) {
	g, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, NonceSize)
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, fmt.Errorf("aead: generating nonce: %w", err)
	}
	return g.Seal(nonce, nonce, plaintext, ad), nil
}

// Open decrypts a box produced by Seal. It fails if the key or ad mismatch
// or the box was modified; the GCM tag check inside crypto/cipher is
// constant-time, so no comparison here touches secret bytes.
//
//spin:secret key
func Open(key, box, ad []byte) ([]byte, error) {
	g, err := newGCM(key)
	if err != nil {
		return nil, err
	}
	if len(box) < Overhead {
		return nil, errors.New("aead: box too short")
	}
	pt, err := g.Open(nil, box[:NonceSize], box[NonceSize:], ad)
	if err != nil {
		return nil, fmt.Errorf("aead: open failed: %w", err)
	}
	return pt, nil
}
