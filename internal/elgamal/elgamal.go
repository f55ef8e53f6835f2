package elgamal

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"

	"safetypin/internal/ecgroup"
)

// BoxOverhead is how much longer a sealed box is than its message (GCM tag).
const BoxOverhead = 16

// Overhead is the ciphertext expansion in bytes: one compressed point plus
// the box overhead.
const Overhead = ecgroup.PointSize + BoxOverhead

const kdfLabel = "safetypin/elgamal/kdf/v2"

// Ciphertext is a hashed-ElGamal ciphertext.
type Ciphertext struct {
	R   ecgroup.Point // ephemeral public nonce r·G
	Box []byte        // AES-GCM sealed payload
}

// Bytes serializes the ciphertext as R ‖ Box.
func (c Ciphertext) Bytes() []byte {
	out := make([]byte, 0, ecgroup.PointSize+len(c.Box))
	out = append(out, c.R.Bytes()...)
	out = append(out, c.Box...)
	return out
}

// CiphertextFromBytes parses a serialized ciphertext.
func CiphertextFromBytes(b []byte) (Ciphertext, error) {
	if len(b) < Overhead {
		return Ciphertext{}, fmt.Errorf("elgamal: ciphertext too short (%d bytes)", len(b))
	}
	r, err := ecgroup.PointFromBytes(b[:ecgroup.PointSize])
	if err != nil {
		return Ciphertext{}, fmt.Errorf("elgamal: parsing nonce point: %w", err)
	}
	box := make([]byte, len(b)-ecgroup.PointSize)
	copy(box, b[ecgroup.PointSize:])
	return Ciphertext{R: r, Box: box}, nil
}

// deriveKey computes the DEM key from the KEM transcript: nonce point,
// shared point, associated data. The recipient's key is not in it — the
// shared point depends on it, and ad names the recipient at every caller —
// so decrypting costs the one multiplication R·sk and no sk·G.
func deriveKey(r, shared ecgroup.Point, ad []byte) []byte {
	h := sha256.New()
	h.Write([]byte(kdfLabel))
	h.Write(r.Bytes())
	h.Write(shared.Bytes())
	adh := sha256.Sum256(ad)
	h.Write(adh[:])
	return h.Sum(nil)
}

// aead runs AES-256-GCM with a fixed zero nonce; every key seals one box
// (fresh DH nonce, and one box per (recipient, ad) under it), so nonce reuse
// cannot occur.
func aead(key []byte) (cipher.AEAD, error) {
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	return cipher.NewGCM(block)
}

var zeroNonce = make([]byte, 12)

// Ephemeral is one encryption nonce r with its public point R = r·G. Hashed
// ElGamal stays secure when one nonce serves several recipients (Bellare,
// Boldyreva and Staddon, PKC 2003), so a sender with the same message for K
// keys pays K+1 multiplications and ships one R, not 2K and K.
type Ephemeral struct {
	r ecgroup.Scalar
	R ecgroup.Point
}

// NewEphemeral draws a fresh nonce from rng.
func NewEphemeral(rng io.Reader) (Ephemeral, error) {
	r, err := ecgroup.RandomScalar(rng)
	if err != nil {
		return Ephemeral{}, err
	}
	return Ephemeral{r: r, R: ecgroup.BaseMul(r)}, nil
}

// Seal returns the box that, beside e.R, encrypts msg to pk under
// domain-separation string ad. A (pk, ad) pair may be sealed to once per
// nonce.
func (e Ephemeral) Seal(pk ecgroup.Point, msg, ad []byte) ([]byte, error) {
	if pk.IsIdentity() {
		return nil, errors.New("elgamal: refusing to encrypt to identity key")
	}
	g, err := aead(deriveKey(e.R, pk.Mul(e.r), ad))
	if err != nil {
		return nil, err
	}
	return g.Seal(nil, zeroNonce, msg, ad), nil
}

// Encrypt encrypts msg to pk under domain-separation string ad, drawing
// a fresh nonce from rng.
func Encrypt(pk ecgroup.Point, msg, ad []byte, rng io.Reader) (Ciphertext, error) {
	e, err := NewEphemeral(rng)
	if err != nil {
		return Ciphertext{}, err
	}
	box, err := e.Seal(pk, msg, ad)
	if err != nil {
		return Ciphertext{}, err
	}
	return Ciphertext{R: e.R, Box: box}, nil
}

// Decrypt decrypts ct with secret key sk under the same ad used at
// encryption time. Any mismatch — wrong key, wrong ad, tampered box —
// returns an error.
func Decrypt(sk ecgroup.Scalar, ct Ciphertext, ad []byte) ([]byte, error) {
	if ct.R.IsIdentity() {
		return nil, errors.New("elgamal: ciphertext nonce is identity")
	}
	g, err := aead(deriveKey(ct.R, ct.R.Mul(sk), ad))
	if err != nil {
		return nil, err
	}
	pt, err := g.Open(nil, zeroNonce, ct.Box, ad)
	if err != nil {
		return nil, fmt.Errorf("elgamal: decryption failed: %w", err)
	}
	return pt, nil
}
