package bls

// wnaf.go implements the width-w non-adjacent-form recoding shared by every
// scalar-multiplication path in this package: GLV half-scalars on G1, the
// four ψ-decomposition quarter-scalars on G2, and the fixed |z| scalar of
// the endomorphism subgroup checks. A width-w NAF writes a scalar as
// Σ dᵢ·2ⁱ with every nonzero digit odd and |dᵢ| < 2^{w−1}, so a w-window
// multiplication needs only the odd multiples {1,3,…,2^{w−1}−1}·P and
// averages one addition every w+1 doublings — signed digits are free on an
// elliptic curve because negation is.

import "math/big"

// wnafDigits recodes the little-endian limb scalar k (treated as |k|) into
// width-w NAF digits, least significant first, flipping every digit when
// neg is set. w must be in [2, 7] so digits fit int8. k is not modified.
func wnafDigits(k []uint64, w uint, neg bool) []int8 {
	if w < 2 || w > 7 {
		panic("bls: wnaf width out of range")
	}
	// One spare limb: the "round up" branch adds up to 2^{w−1} to the
	// running value, which can carry past the top limb of k.
	buf := make([]uint64, len(k)+1)
	copy(buf, k)
	mask := uint64(1)<<w - 1
	half := uint64(1) << (w - 1)
	out := make([]int8, 0, 64*len(k)+1)
	for !limbsIsZero(buf) {
		var d int8
		if buf[0]&1 == 1 {
			v := buf[0] & mask
			if v >= half {
				// Centered digit v − 2^w < 0: add its magnitude back.
				d = int8(int64(v) - (int64(1) << w))
				limbsAddSmall(buf, uint64(-int64(d)))
			} else {
				d = int8(v)
				limbsSubSmall(buf, v)
			}
		}
		out = append(out, d)
		limbsShr1(buf)
	}
	if neg {
		for i := range out {
			out[i] = -out[i]
		}
	}
	return out
}

// wnafBig recodes a signed big.Int scalar.
func wnafBig(k *big.Int, w uint) []int8 {
	return wnafDigits(bigToLimbs(k), w, k.Sign() < 0)
}

// bigToLimbs returns |k| as little-endian limbs (at least one limb). It
// goes through the byte encoding rather than k.Bits() so the limb width
// does not depend on the platform's big.Word size.
func bigToLimbs(k *big.Int) []uint64 {
	b := new(big.Int).Abs(k).Bytes() // big-endian
	n := (len(b) + 7) / 8
	out := make([]uint64, n+1) // never empty, even for k = 0
	for i := 0; i < n; i++ {
		end := len(b) - 8*i
		start := end - 8
		if start < 0 {
			start = 0
		}
		var v uint64
		for _, by := range b[start:end] {
			v = v<<8 | uint64(by)
		}
		out[i] = v
	}
	return out
}

func limbsIsZero(x []uint64) bool {
	var acc uint64
	for _, v := range x {
		acc |= v
	}
	return acc == 0
}

// limbsSubSmall subtracts a single-limb value in place (no final borrow by
// construction: v comes from the low limb).
func limbsSubSmall(x []uint64, v uint64) {
	var borrow uint64 = v
	for i := 0; i < len(x) && borrow != 0; i++ {
		old := x[i]
		x[i] = old - borrow
		if old >= borrow {
			borrow = 0
		} else {
			borrow = 1
		}
	}
}

// limbsAddSmall adds a single-limb value in place.
func limbsAddSmall(x []uint64, v uint64) {
	var carry uint64 = v
	for i := 0; i < len(x) && carry != 0; i++ {
		old := x[i]
		x[i] = old + carry
		if x[i] < old {
			carry = 1
		} else {
			carry = 0
		}
	}
}

// limbsShr1 shifts right by one bit in place.
func limbsShr1(x []uint64) {
	for i := 0; i < len(x); i++ {
		x[i] >>= 1
		if i+1 < len(x) {
			x[i] |= x[i+1] << 63
		}
	}
}
