package bls

import (
	"errors"
	"fmt"
)

// hint.go holds the two checks that let an HSM take the provider's word,
// verified, for work on public data.
//
// The hash hint. HashMessage spends two square roots (the SSWU maps) and
// one inversion (the affine form of the result) on a header every HSM
// hashes. A hint carries the two roots and the affine point. The HSM
// checks each root with one squaring and two products (checkSqrtRatio:
// y²·v is u or Z·u, which decides the RFC's is_QR exactly because Z is a
// non-square and v ≠ 0; sgn0 then fixes the sign, so either sign of a
// root maps to the same point), runs the rest of the hash as usual, and
// checks the affine point against its own Jacobian result: X = x·Z² and
// Y = y·Z³ with Z ≠ 0 fix x and y. A hint it accepts therefore yields the
// Message HashMessage computes, bit for bit, and a hint that is wrong in
// any coordinate is refused.
//
// The cofactor preimage. A signature σ off the wire must lie in G1, the
// order-r subgroup of E(Fp). The RFC 9380 §8.8.1 effective cofactor
// h_eff = 1 − x (Wahby and Boneh, TCHES 2019) sends every point of E(Fp)
// into G1, so σ = [1 − x]τ for some τ on E proves σ ∈ G1. The provider
// sends τ = [(1 − x)⁻¹ mod r]σ; the HSM decodes it strictly and compares
// clearCofactorG1(τ), 63 doublings, with σ, where the membership test
// runs 126. τ must be checked on E: the doubling and addition formulas
// never read the curve constant b, so a τ on y² = x³ + b′ would map to a
// forged σ on that curve as faithfully as a τ on E maps into G1. Any
// small-order part of τ is cleared with the rest, so τ + T, for T of
// order dividing h_eff, is accepted with τ: the check proves σ's
// membership, not τ's uniqueness.
//
// Both hints are provider bytes: the decoders refuse a wrong length and
// any coordinate ≥ p, and nothing in a hint is trusted before its check.

// HashHintSize is the encoded size of a hash hint: two roots and the
// affine point, four Fp coordinates.
const HashHintSize = 4 * fpSize

// HashHint is the provider's hint for hashing one message: the two SSWU
// square roots of hash_to_field(msg) and the affine coordinates of the
// hash.
type HashHint struct {
	roots [2]fe
	x, y  fe
}

// ProveHash hashes msg as HashMessage does and returns the hint with
// which an HSM repeats the hash without a square root or an inversion
// (HashMessageHinted).
func ProveHash(msg []byte) (Message, *HashHint) {
	h, hint := proveHash(sigDomain, msg)
	return Message{h: h}, hint
}

// HashMessage hashes msg for signing or verification.
func HashMessage(msg []byte) Message {
	m, _ := ProveHash(msg)
	return m
}

// HashMessageHinted hashes msg with the provider's hint: the two square
// roots are checked instead of computed and the affine point instead of
// inverted for. It returns HashMessage(msg), or an error when the hint
// does not verify.
func HashMessageHinted(msg []byte, hint *HashHint) (Message, error) {
	h, err := hashHinted(sigDomain, msg, hint)
	return Message{h: h}, err
}

// proveHash returns the hash of msg under dst, affine, and its hint. The
// hint of the identity, which no message hashes to but with negligible
// probability, has x = y = 0 and is refused by hashHinted.
func proveHash(dst string, msg []byte) (G1, *HashHint) {
	h, roots, _ := hashToG1(dst, msg, nil)
	hint := &HashHint{roots: roots}
	if x, y, inf := h.affine(); !inf {
		h = g1FromAffine(x, y)
		hint.x, hint.y = x, y
	}
	return h, hint
}

// hashHinted is the hash of msg under dst with hint's roots checked, and
// the hint's affine point once it is checked against the Jacobian result.
func hashHinted(dst string, msg []byte, hint *HashHint) (G1, error) {
	if hint == nil {
		return G1{}, errors.New("bls: no hash hint")
	}
	h, _, ok := hashToG1(dst, msg, &hint.roots)
	if ok != 1 {
		return G1{}, errors.New("bls: hash hint root is not a square root")
	}
	if h.IsInfinity() {
		return G1{}, errors.New("bls: message hashes to the identity")
	}
	var z2, t fe
	feSquare(&z2, &h.z)
	feMul(&t, &hint.x, &z2)
	if t != h.x {
		return G1{}, errors.New("bls: hash hint x does not match the hash")
	}
	feMul(&z2, &z2, &h.z)
	feMul(&t, &hint.y, &z2)
	if t != h.y {
		return G1{}, errors.New("bls: hash hint y does not match the hash")
	}
	return g1FromAffine(hint.x, hint.y), nil
}

// coords lists the hint's coordinates in encoding order.
func (hh *HashHint) coords() [4]*fe {
	return [4]*fe{&hh.roots[0], &hh.roots[1], &hh.x, &hh.y}
}

// Bytes encodes the hint as its four coordinates, each 48 big-endian
// bytes: root 0, root 1, x, y.
func (hh *HashHint) Bytes() []byte {
	out := make([]byte, HashHintSize)
	for i, c := range hh.coords() {
		feToBytes(out[i*fpSize:(i+1)*fpSize], c)
	}
	return out
}

// HashHintFromBytes decodes a hint strictly: exactly HashHintSize bytes
// and every coordinate below p. Whether it is the right hint is
// HashMessageHinted's question.
func HashHintFromBytes(b []byte) (*HashHint, error) {
	if len(b) != HashHintSize {
		return nil, fmt.Errorf("bls: hash hint must be %d bytes, got %d", HashHintSize, len(b))
	}
	hh := new(HashHint)
	for i, c := range hh.coords() {
		chunk := b[i*fpSize : (i+1)*fpSize]
		if !feValidBytes(chunk) {
			return nil, fmt.Errorf("bls: hash hint coordinate %d is not below p", i)
		}
		feFromBytes(c, chunk)
	}
	return hh, nil
}

// PreimageSize is the encoded size of a cofactor preimage, a G1 point.
const PreimageSize = G1Size

// heffInv is (1 − x)⁻¹ mod r, little-endian: the scalar that takes σ ∈ G1
// to the τ ∈ G1 with [1 − x]τ = σ. The test file recomputes it.
var heffInv = Scalar{l: [4]uint64{0xffff000000000001, 0x1400480189fd0000, 0xa5e80b39939ed335, 0x73eda753299d7d47}}

// Preimage returns the encoded cofactor preimage of a signature in G1,
// τ = [(1 − x)⁻¹ mod r]σ, which SignatureFromPreimage maps back onto σ.
// For σ on E outside G1 it returns some point that SignatureFromPreimage
// refuses with σ, since an accepted pair proves σ ∈ G1; so Preimage and
// that check together decide a point of E's membership (aggsig proves
// each epoch's aggregate this way). The scalar is public; the
// constant-time walk is simply the G1 multiplication there is.
func (s *Signature) Preimage() []byte {
	return s.p.MulSecret(&heffInv).Bytes()
}

// SignatureFromPreimage decodes a signature and proves it in G1 with its
// cofactor preimage instead of the membership test: the preimage must be
// a canonical, on-curve, finite point τ, and clearCofactorG1(τ) must
// equal the signature, which is then on E and in G1 whatever its own
// coordinates claimed. The identity is refused.
func SignatureFromPreimage(sig, preimage []byte) (*Signature, error) {
	s, err := g1DecodeUncompressed(sig)
	if err != nil {
		return nil, err
	}
	if s.IsInfinity() {
		return nil, errors.New("bls: signature is the identity")
	}
	if len(preimage) != PreimageSize {
		return nil, fmt.Errorf("bls: preimage must be %d bytes, got %d", PreimageSize, len(preimage))
	}
	tau, err := g1DecodeUncompressed(preimage)
	if err != nil {
		return nil, fmt.Errorf("bls: preimage: %w", err)
	}
	if tau.IsInfinity() {
		return nil, errors.New("bls: preimage is the identity")
	}
	if !tau.OnCurve() {
		return nil, errors.New("bls: preimage is not on the curve")
	}
	if !clearCofactorG1(tau).Equal(s) {
		return nil, errors.New("bls: preimage does not map to the signature")
	}
	return &Signature{p: s}, nil
}
