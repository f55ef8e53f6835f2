package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"safetypin/internal/codec"
)

// Frame layout: len(u32) ‖ crc32c(u32) ‖ payload, where
// payload = kind(u8) ‖ seq(u64) ‖ body. len counts payload bytes only.
const (
	frameHeader = 8
	payloadMin  = 9 // kind + seq
	// maxFrame bounds a single frame's payload; anything larger is
	// treated as corruption rather than a 4 GiB allocation.
	maxFrame = codec.MaxBlob + 1024
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// errShortFrame marks an incomplete frame at the end of a buffer — the
// torn tail of an interrupted append, distinguishable from a CRC
// failure only in that fewer bytes exist than the header promises.
var errShortFrame = errors.New("storage: short frame")

// EncodeRecord returns a record's canonical framed encoding (sequence
// number 0). The provider hashes these to build its state digest, so
// the encoding must be deterministic — it is, because every codec is a
// fixed field walk.
func EncodeRecord(rec Record) []byte { return appendFrame(nil, 0, rec) }

// appendFrame encodes one record into dst.
func appendFrame(dst []byte, seq uint64, rec Record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // len + crc placeholders
	dst = append(dst, rec.Kind())
	dst = codec.AppendU64(dst, seq)
	dst = rec.append(dst)
	payload := dst[start+frameHeader:]
	binary.BigEndian.PutUint32(dst[start:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start+4:], crc32.Checksum(payload, castagnoli))
	return dst
}

// readFrame decodes the frame at the start of b, returning the record,
// its sequence number, and the bytes consumed. It returns errShortFrame
// when b ends before the frame does and ErrCorrupt for CRC or
// structural failures.
func readFrame(b []byte) (seq uint64, rec Record, n int, err error) {
	if len(b) < frameHeader {
		return 0, nil, 0, errShortFrame
	}
	plen, crc := binary.BigEndian.Uint32(b), binary.BigEndian.Uint32(b[4:])
	if plen < payloadMin || plen > maxFrame {
		return 0, nil, 0, fmt.Errorf("%w: frame length %d", ErrCorrupt, plen)
	}
	if len(b) < frameHeader+int(plen) {
		return 0, nil, 0, errShortFrame
	}
	payload := b[frameHeader : frameHeader+int(plen)]
	if crc32.Checksum(payload, castagnoli) != crc {
		return 0, nil, 0, fmt.Errorf("%w: crc mismatch", ErrCorrupt)
	}
	rec, err = newRecord(payload[0])
	if err != nil {
		return 0, nil, 0, err
	}
	seq = binary.BigEndian.Uint64(payload[1:])
	if err := rec.decode(payload[payloadMin:]); err != nil {
		return 0, nil, 0, err
	}
	return seq, rec, frameHeader + int(plen), nil
}

// scanFrames walks every whole frame in b, invoking fn for each. It
// returns the byte offset just past the last good frame and the error
// that stopped the scan: nil if the buffer was fully consumed,
// errShortFrame or ErrCorrupt otherwise. Errors from fn abort the scan
// and are returned verbatim.
func scanFrames(b []byte, fn func(seq uint64, rec Record) error) (int, error) {
	off := 0
	for off < len(b) {
		seq, rec, n, err := readFrame(b[off:])
		if err != nil {
			return off, err
		}
		if err := fn(seq, rec); err != nil {
			return off, err
		}
		off += n
	}
	return off, nil
}
