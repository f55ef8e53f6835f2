// Package codec holds the primitives of the project's one binary encoding:
// big-endian fixed-width integers, u32-length-prefixed byte strings, and a
// bounds-checked Reader. Every layout built on it is a fixed field walk, so
// an encoding is canonical by construction, and malformed input makes the
// Reader fail instead of panicking or allocating what the input only
// claims to hold.
package codec

import "encoding/binary"

// MaxBlob bounds any single variable-length field; a longer length prefix
// is rejected before any allocation.
const MaxBlob = 1 << 26 // 64 MiB

// AppendU32 appends v big-endian.
func AppendU32(dst []byte, v uint32) []byte { return binary.BigEndian.AppendUint32(dst, v) }

// AppendU64 appends v big-endian.
func AppendU64(dst []byte, v uint64) []byte { return binary.BigEndian.AppendUint64(dst, v) }

// AppendBool appends v as one byte, 0 or 1.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendBlob appends p with a u32 length prefix.
func AppendBlob(dst, p []byte) []byte {
	dst = AppendU32(dst, uint32(len(p)))
	return append(dst, p...)
}

// AppendStr appends s with a u32 length prefix.
func AppendStr(dst []byte, s string) []byte {
	dst = AppendU32(dst, uint32(len(s)))
	return append(dst, s...)
}

// Reader is a bounds-checked cursor over an encoding. The first failure
// latches: every later read returns a zero value, and Done reports it.
type Reader struct {
	b   []byte
	bad bool
}

// NewReader returns a Reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// take returns the next n bytes, or nil and a latched failure if fewer
// remain.
func (r *Reader) take(n int) []byte {
	if r.bad || len(r.b) < n {
		r.bad = true
		return nil
	}
	v := r.b[:n]
	r.b = r.b[n:]
	return v
}

// U8 reads one byte.
func (r *Reader) U8() byte {
	if b := r.take(1); b != nil {
		return b[0]
	}
	return 0
}

// Bool reads one byte that must be 0 or 1.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.bad = true
	}
	return v == 1
}

// U32 reads a big-endian uint32.
func (r *Reader) U32() uint32 {
	if b := r.take(4); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

// U64 reads a big-endian uint64.
func (r *Reader) U64() uint64 {
	if b := r.take(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Count reads a u32 element count and checks it against the remaining
// input, given that each element takes at least minSize bytes, so the
// caller may allocate count elements safely.
func (r *Reader) Count(minSize int) int {
	n := r.U32()
	if r.bad || n > MaxBlob || uint64(n)*uint64(minSize) > uint64(len(r.b)) {
		r.bad = true
		return 0
	}
	return int(n)
}

// Blob reads a u32-length-prefixed byte string into a fresh slice.
func (r *Reader) Blob() []byte { return append([]byte(nil), r.take(r.Count(1))...) }

// Str reads a u32-length-prefixed string.
func (r *Reader) Str() string { return string(r.take(r.Count(1))) }

// Fixed reads a field of n bytes, a length the layout fixes. The result
// aliases the input.
func (r *Reader) Fixed(n int) []byte { return r.take(n) }

// Hash reads a 32-byte hash.
func (r *Reader) Hash() (h [32]byte) {
	copy(h[:], r.take(32))
	return h
}

// Done reports whether every read succeeded and the input is used up.
func (r *Reader) Done() bool { return !r.bad && len(r.b) == 0 }
