package bls

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
)

// Scalar is an integer in [0, r) held as four little-endian 64-bit
// limbs: the type of a BLS secret key. Only sampleScalar makes one, so
// every Scalar is fully reduced and the multipliers read its limbs with
// no reduction of their own (MulSecret through the GLV split in glv.go,
// G2MulGenSecret as 4-bit windows).
type Scalar struct {
	l [4]uint64 //spin:secret
}

// rLimbs is the group order r, little-endian.
var rLimbs = [4]uint64{0xffffffff00000001, 0x53bda402fffe5bfe, 0x3339d80809a1d805, 0x73eda753299d7d48}

// sampleScalar draws a nonzero scalar from rng exactly as
// rand.Int(rng, r) followed by a redraw on zero would: 32 big-endian
// bytes with the top bit cleared (r has 255 bits), drawn again while the
// value is ≥ r or zero. Keys from a seeded rng, and the goldens made from
// them, depend on this use of the stream.
func sampleScalar(rng io.Reader) (Scalar, error) {
	var b [32]byte
	for {
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return Scalar{}, fmt.Errorf("bls: sampling key: %w", err)
		}
		b[0] &= 0x7f
		var s Scalar
		for i := range s.l {
			s.l[i] = binary.BigEndian.Uint64(b[24-8*i:])
		}
		// s < r iff s − r borrows.
		var borrow uint64
		for i := range s.l {
			_, borrow = bits.Sub64(s.l[i], rLimbs[i], borrow)
		}
		ok := borrow & ctNonzero64(s.l[0]|s.l[1]|s.l[2]|s.l[3])
		//spinlint:ignore ctsecret a draw that is ≥ r or zero is discarded; the branch reveals only that a redraw happened
		if ok == 1 {
			return s, nil
		}
	}
}
