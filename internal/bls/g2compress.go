package bls

// g2compress.go implements the IETF/zcash 96-byte compressed encoding of G2
// points: x = x0 + x1·u is serialized as x1 ‖ x0 (48 big-endian bytes
// each), with three flag bits folded into the top of the first byte —
// 0x80 "compressed", 0x40 "infinity", 0x20 "y is the lexicographically
// larger root". Decompression solves y² = x³ + 4(u+1) with an Fp2 square
// root (p ≡ 3 mod 4) and picks the root matching the sign flag.
//
// The uncompressed 193-byte format (curve.go) stays for the proof-of-
// possession domain, which hashes it; rosters on the wire carry only this
// compressed form (aggsig).

import (
	"errors"
	"fmt"
)

// G2CompressedSize is the encoded size of a compressed G2 point.
const G2CompressedSize = 2 * fpSize

// Flag bits of the zcash point-serialization format.
const (
	g2FlagCompressed = 0x80
	g2FlagInfinity   = 0x40
	g2FlagLargestY   = 0x20
)

// feRawGreaterHalf reports whether x (taken out of Montgomery form) exceeds
// (p−1)/2 — i.e. x is the "negative" (lexicographically larger) of the pair
// {x, −x}.
func feRawGreaterHalf(x *fe) bool {
	var t fe
	feMul(&t, x, &feRawOne) // out of Montgomery form
	for i := 5; i >= 0; i-- {
		if t[i] != pMinus1Over2[i] {
			return t[i] > pMinus1Over2[i]
		}
	}
	return false // exactly (p−1)/2 is the smaller root's maximum
}

// fe2LexLargest reports whether y is the lexicographically larger of
// {y, −y}: the c1 coordinate decides, with ties broken by c0 (the zcash
// ordering for Fp2).
func fe2LexLargest(y *fe2) bool {
	if !y.c1.isZero() {
		return feRawGreaterHalf(&y.c1)
	}
	return feRawGreaterHalf(&y.c0)
}

// fe2Sqrt sets z to a square root of x and reports whether one exists,
// using the p ≡ 3 (mod 4) two-exponentiation algorithm: with
// a1 = x^((p−3)/4), the candidate is either i·a1·x (when x^((p−1)/2) = −1)
// or (1 + x^((p−1)/2))^((p−1)/2)·a1·x. z must not alias x.
func fe2Sqrt(z, x *fe2) bool {
	if x.isZero() {
		z.setZero()
		return true
	}
	var a1, alpha, x0, t fe2
	a1.exp(x, pMinus3Over4[:])
	alpha.square(&a1)
	alpha.mul(&alpha, x) // x^((p−1)/2), the Euler criterion value
	x0.mul(&a1, x)       // x^((p+1)/4)

	var negOne fe2
	negOne.setOne()
	negOne.neg(&negOne)
	if alpha.equal(&negOne) {
		// z = i·x0 = (−x0.c1) + x0.c0·u.
		feNeg(&z.c0, &x0.c1)
		z.c1 = x0.c0
	} else {
		var one fe2
		one.setOne()
		alpha.add(&alpha, &one)
		alpha.exp(&alpha, pMinus1Over2[:])
		z.mul(&alpha, &x0)
	}
	t.square(z)
	return t.equal(x)
}

// compressAffine encodes an affine (or infinity) point; the shared tail of
// the single and batch serialization paths.
func compressAffine(ax, ay *fe2, inf bool) []byte {
	out := make([]byte, G2CompressedSize)
	if inf {
		out[0] = g2FlagCompressed | g2FlagInfinity
		return out
	}
	feToBytes(out[:fpSize], &ax.c1)
	feToBytes(out[fpSize:], &ax.c0)
	out[0] |= g2FlagCompressed
	if fe2LexLargest(ay) {
		out[0] |= g2FlagLargestY
	}
	return out
}

// BytesCompressed encodes the point in the 96-byte zcash format.
func (p G2) BytesCompressed() []byte {
	ax, ay, inf := p.affine()
	return compressAffine(&ax, &ay, inf)
}

// G2FromCompressedBytes decodes a compressed point, enforcing canonical
// flags plus curve and subgroup membership (the ψ endomorphism check).
func G2FromCompressedBytes(b []byte) (G2, error) {
	p, err := g2Decompress(b)
	if err != nil {
		return G2{}, err
	}
	if !p.inSubgroupPsi() {
		return G2{}, errors.New("bls: G2 point not in subgroup")
	}
	return p, nil
}

// g2Decompress decodes the zcash format onto the twist without the
// subgroup check — split out so benchmarks can price the membership test
// separately from the square root.
func g2Decompress(b []byte) (G2, error) {
	if len(b) != G2CompressedSize {
		return G2{}, fmt.Errorf("bls: compressed G2 encoding must be %d bytes, got %d",
			G2CompressedSize, len(b))
	}
	if b[0]&g2FlagCompressed == 0 {
		return G2{}, errors.New("bls: compression flag not set")
	}
	largest := b[0]&g2FlagLargestY != 0
	c1raw := append([]byte(nil), b[:fpSize]...)
	c1raw[0] &^= g2FlagCompressed | g2FlagInfinity | g2FlagLargestY
	if b[0]&g2FlagInfinity != 0 {
		if largest {
			return G2{}, errors.New("bls: infinity with sign flag set")
		}
		for _, v := range c1raw {
			if v != 0 {
				return G2{}, errors.New("bls: non-zero infinity encoding")
			}
		}
		for _, v := range b[fpSize:] {
			if v != 0 {
				return G2{}, errors.New("bls: non-zero infinity encoding")
			}
		}
		return g2Infinity(), nil
	}
	if !feValidBytes(c1raw) || !feValidBytes(b[fpSize:]) {
		return G2{}, errors.New("bls: G2 coordinate out of range")
	}
	var x fe2
	feFromBytes(&x.c1, c1raw)
	feFromBytes(&x.c0, b[fpSize:])

	// y² = x³ + 4(u+1) on the twist.
	var rhs, y fe2
	rhs.square(&x)
	rhs.mul(&rhs, &x)
	rhs.add(&rhs, &fe2B)
	if !fe2Sqrt(&y, &rhs) {
		return G2{}, errors.New("bls: compressed x not on curve")
	}
	if fe2LexLargest(&y) != largest {
		y.neg(&y)
	}
	// The successful square root already certifies the curve equation;
	// the caller applies the subgroup check.
	return g2FromAffine(x, y), nil
}
