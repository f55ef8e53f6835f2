package ff

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

// p = 2^255 - 19.
var p = func() *big.Int {
	v := new(big.Int).Lsh(big.NewInt(1), 255)
	return v.Sub(v, big.NewInt(19))
}()

// ElementSize is the canonical byte length of a serialized field element.
const ElementSize = 32

// MaxSecretLen is the largest byte string that Embed accepts. 31 bytes always
// fit below p = 2^255-19.
const MaxSecretLen = 31

// Element is an element of Z_p.
type Element struct {
	v *big.Int // always non-nil and in [0, p)
}

// Zero returns the additive identity.
func Zero() Element { return Element{big.NewInt(0)} }

// One returns the multiplicative identity.
func One() Element { return Element{big.NewInt(1)} }

// FromInt64 returns the field element congruent to x.
func FromInt64(x int64) Element {
	v := big.NewInt(x)
	v.Mod(v, p)
	return Element{v}
}

// Random returns a uniform field element read from r.
func Random(r io.Reader) (Element, error) {
	v, err := rand.Int(r, p)
	if err != nil {
		return Element{}, fmt.Errorf("ff: sampling random element: %w", err)
	}
	return Element{v}, nil
}

// big returns the internal value, treating the zero Element as 0.
func (e Element) big() *big.Int {
	if e.v == nil {
		return big.NewInt(0)
	}
	return e.v
}

// Add returns e + f mod p.
//
//spin:vartime
func (e Element) Add(f Element) Element {
	v := new(big.Int).Add(e.big(), f.big())
	if v.Cmp(p) >= 0 {
		v.Sub(v, p)
	}
	return Element{v}
}

// Sub returns e − f mod p.
//
//spin:vartime
func (e Element) Sub(f Element) Element {
	v := new(big.Int).Sub(e.big(), f.big())
	if v.Sign() < 0 {
		v.Add(v, p)
	}
	return Element{v}
}

// Mul returns e · f mod p.
//
//spin:vartime
func (e Element) Mul(f Element) Element {
	v := new(big.Int).Mul(e.big(), f.big())
	return Element{v.Mod(v, p)}
}

// Inv returns the multiplicative inverse of e. It returns an error for zero.
//
//spin:vartime
func (e Element) Inv() (Element, error) {
	if e.IsZero() {
		return Element{}, errors.New("ff: inverse of zero")
	}
	return Element{new(big.Int).ModInverse(e.big(), p)}, nil
}

// Div returns e / f. It returns an error if f is zero.
//
//spin:vartime
func (e Element) Div(f Element) (Element, error) {
	fi, err := f.Inv()
	if err != nil {
		return Element{}, err
	}
	return e.Mul(fi), nil
}

// IsZero reports whether e is the additive identity.
func (e Element) IsZero() bool { return e.big().Sign() == 0 }

// Bytes returns the canonical 32-byte big-endian encoding.
func (e Element) Bytes() []byte {
	out := make([]byte, ElementSize)
	e.big().FillBytes(out)
	return out
}

// FromBytes decodes a canonical 32-byte encoding, rejecting values ≥ p so
// every element has exactly one encoding.
func FromBytes(b []byte) (Element, error) {
	if len(b) != ElementSize {
		return Element{}, fmt.Errorf("ff: encoding must be %d bytes, got %d", ElementSize, len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(p) >= 0 {
		return Element{}, errors.New("ff: non-canonical encoding (value >= p)")
	}
	return Element{v}, nil
}

// Embed injects a short byte string into the field so that Extract recovers
// it exactly. The encoding is length-prefixed to make Extract unambiguous:
// value = len(msg) · 2^(8·MaxSecretLen) + msg  (both < p for len ≤ 31).
func Embed(msg []byte) (Element, error) {
	if len(msg) > MaxSecretLen {
		return Element{}, fmt.Errorf("ff: message length %d exceeds %d bytes", len(msg), MaxSecretLen)
	}
	v := new(big.Int).SetBytes(msg)
	l := new(big.Int).Lsh(big.NewInt(int64(len(msg))), 8*MaxSecretLen)
	v.Add(v, l)
	return Element{v}, nil
}

// Extract inverts Embed.
func Extract(e Element) ([]byte, error) {
	v := new(big.Int).Set(e.big())
	l := new(big.Int).Rsh(v, 8*MaxSecretLen)
	if !l.IsInt64() || l.Int64() < 0 || l.Int64() > MaxSecretLen {
		return nil, errors.New("ff: element is not an Embed encoding")
	}
	n := int(l.Int64())
	v.Sub(v, new(big.Int).Lsh(l, 8*MaxSecretLen))
	out := make([]byte, n)
	if v.BitLen() > 8*n {
		return nil, errors.New("ff: embedded payload longer than its length prefix")
	}
	v.FillBytes(out)
	return out, nil
}

// String implements fmt.Stringer with a short hex prefix, for debugging.
func (e Element) String() string {
	b := e.Bytes()
	return fmt.Sprintf("ff(%x…)", b[:4])
}
