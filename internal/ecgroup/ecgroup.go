package ecgroup

import (
	"crypto/elliptic"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
)

var curve = elliptic.P256()

// ScalarSize is the byte length of a serialized scalar.
const ScalarSize = 32

// PointSize is the byte length of a compressed point encoding.
const PointSize = 33

// Scalar is an integer modulo the P-256 group order. Every scalar made here
// is a secret: a signing or decryption key, or an encryption nonce.
type Scalar struct {
	v *big.Int //spin:secret
}

// coordSize is the byte length of one affine coordinate.
const coordSize = 32

// Point is a P-256 point, including the identity (point at infinity). It
// is a plain value holding its two affine coordinates big-endian, with no
// pointer inside, so a slice of points is one noscan allocation of 64
// bytes a point. The zero value is the identity: (0, 0) is not on P-256,
// whose b is non-zero. Because the coordinates are canonical, == on
// points is group equality.
type Point struct {
	x, y [coordSize]byte
}

// pointFromBig packs affine coordinates from crypto/elliptic; (0, 0),
// which crypto/elliptic returns for the point at infinity, packs to the
// identity.
func pointFromBig(x, y *big.Int) Point {
	var p Point
	x.FillBytes(p.x[:])
	y.FillBytes(p.y[:])
	return p
}

// big unpacks p's coordinates for crypto/elliptic.
func (p Point) big() (x, y *big.Int) {
	return new(big.Int).SetBytes(p.x[:]), new(big.Int).SetBytes(p.y[:])
}

// RandomScalar samples a uniform non-zero scalar from r.
func RandomScalar(r io.Reader) (Scalar, error) {
	for {
		k, err := rand.Int(r, curve.Params().N)
		if err != nil {
			return Scalar{}, fmt.Errorf("ecgroup: sampling scalar: %w", err)
		}
		if k.Sign() != 0 {
			return Scalar{k}, nil
		}
	}
}

// ScalarFromBytes decodes a canonical 32-byte big-endian scalar, rejecting
// values ≥ q.
func ScalarFromBytes(b []byte) (Scalar, error) {
	if len(b) != ScalarSize {
		return Scalar{}, fmt.Errorf("ecgroup: scalar must be %d bytes, got %d", ScalarSize, len(b))
	}
	v := new(big.Int).SetBytes(b)
	if v.Cmp(curve.Params().N) >= 0 {
		return Scalar{}, errors.New("ecgroup: scalar not canonical")
	}
	return Scalar{v}, nil
}

// ScalarReduce reduces an arbitrary byte string mod q. Used for
// hash-to-scalar; a 48-byte input keeps the bias below 2^-128.
func ScalarReduce(b []byte) Scalar {
	v := new(big.Int).SetBytes(b)
	return Scalar{v.Mod(v, curve.Params().N)}
}

//spin:secret return
func (s Scalar) big() *big.Int {
	//spinlint:ignore ctsecret nil marks the zero value Scalar{}, not a bit of a live scalar
	if s.v == nil {
		return big.NewInt(0)
	}
	return s.v
}

// Bytes returns the canonical 32-byte encoding.
func (s Scalar) Bytes() []byte {
	out := make([]byte, ScalarSize)
	//spinlint:ignore ctsecret scalars are big.Int-backed until the ROADMAP item "no big.Int under a secret" moves them to fixed limbs; FillBytes pads to a fixed 32-byte width
	s.big().FillBytes(out)
	return out
}

// IsZero reports whether s == 0.
func (s Scalar) IsZero() bool {
	//spinlint:ignore ctsecret big.Int-backed until the ROADMAP item "no big.Int under a secret"; a zero scalar is rejected or resampled, never used as a key
	return s.big().Sign() == 0
}

// Identity returns the group identity element.
func Identity() Point { return Point{} }

// BaseMul returns s·G.
func BaseMul(s Scalar) Point {
	if s.IsZero() {
		return Identity()
	}
	return pointFromBig(curve.ScalarBaseMult(s.Bytes()))
}

// Mul returns s·P.
func (p Point) Mul(s Scalar) Point {
	if p.IsIdentity() || s.IsZero() {
		return Identity()
	}
	x, y := p.big()
	return pointFromBig(curve.ScalarMult(x, y, s.Bytes()))
}

// IsIdentity reports whether p is the point at infinity.
func (p Point) IsIdentity() bool { return p == Point{} }

// Bytes returns the canonical 33-byte encoding: SEC1 compressed form
// (0x02 or 0x03 by the parity of y, then x) for ordinary points and 33
// zero bytes for the identity. It is byte-identical to
// elliptic.MarshalCompressed, which elgamal's key derivation hashes.
func (p Point) Bytes() []byte {
	out := make([]byte, PointSize)
	if !p.IsIdentity() {
		out[0] = 2 | p.y[coordSize-1]&1
		copy(out[1:], p.x[:])
	}
	return out
}

// PointFromBytes decodes a canonical encoding, verifying curve membership.
func PointFromBytes(b []byte) (Point, error) {
	if len(b) != PointSize {
		return Point{}, fmt.Errorf("ecgroup: point must be %d bytes, got %d", PointSize, len(b))
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return Identity(), nil
	}
	x, y := elliptic.UnmarshalCompressed(curve, b)
	if x == nil {
		return Point{}, errors.New("ecgroup: invalid point encoding")
	}
	return pointFromBig(x, y), nil
}

// KeyPair is an ElGamal-style keypair: sk uniform in Z_q, pk = sk·G.
type KeyPair struct {
	SK Scalar
	PK Point
}

// GenerateKeyPair samples a fresh keypair from r.
func GenerateKeyPair(r io.Reader) (KeyPair, error) {
	sk, err := RandomScalar(r)
	if err != nil {
		return KeyPair{}, err
	}
	return KeyPair{SK: sk, PK: BaseMul(sk)}, nil
}

// GenerateKeyPairs samples n keypairs in one batch: a single bulk entropy
// read of 48 bytes per key (reduced mod q, bias < 2^-128, no rejection
// loop) replaces n rejection-sampled rand.Int calls.
func GenerateKeyPairs(r io.Reader, n int) ([]KeyPair, error) {
	if n < 0 {
		return nil, fmt.Errorf("ecgroup: negative batch size %d", n)
	}
	buf := make([]byte, 48*n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("ecgroup: sampling batch: %w", err)
	}
	out := make([]KeyPair, n)
	for i := range out {
		sk := ScalarReduce(buf[i*48 : (i+1)*48])
		for sk.IsZero() { // probability ~2^-256: resample
			var err error
			sk, err = RandomScalar(r)
			if err != nil {
				return nil, err
			}
		}
		out[i] = KeyPair{SK: sk, PK: BaseMul(sk)}
	}
	return out, nil
}

// String implements fmt.Stringer for debugging.
func (p Point) String() string {
	if p.IsIdentity() {
		return "ec(∞)"
	}
	return fmt.Sprintf("ec(%x…)", p.Bytes()[:5])
}
