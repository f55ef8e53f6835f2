package storage

import (
	"bytes"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"safetypin/internal/codec"
)

// sampleRecords covers every record kind with non-trivial field values.
func sampleRecords() []Record {
	return []Record{
		&AttemptRecord{User: "alice", Attempt: 7},
		&CiphertextRecord{User: "bob", Index: 3, Blob: []byte{1, 2, 3, 4}},
		&LogInsertRecord{ID: []byte("recover|alice|#7"), Val: bytes.Repeat([]byte{0xaa}, 32), Pending: true},
		&EpochCommitRecord{
			Epoch: 42, NumEntries: 5,
			OldDigest: [32]byte{1}, NewDigest: [32]byte{2}, Root: [32]byte{3},
			NumChunks: 8, NumEntry: 5,
			AggSig:  []byte("sig-bytes"),
			Signers: []uint32{0, 3, 9, 17},
		},
		&EscrowRecord{User: "carol", Attempt: 2, HSMIndex: 11, SharePos: 4, Box: []byte("box")},
		&EscrowClearRecord{User: "carol"},
		&OraclePutRecord{HSMID: 5, Addr: 1 << 40, Block: bytes.Repeat([]byte{7}, 48)},
		&OracleClearRecord{HSMID: 5},
		&RosterRecord{ID: 9, Addr: "127.0.0.1:9009", BFEPub: []byte("bfe"), AggPub: []byte("agg")},
		&GCRecord{},
		&PendingDropRecord{Count: 3},
		&snapshotMeta{Version: snapshotVersion, BaseSeq: 99, Count: 12},
		&AttemptRejectRecord{User: "mallory", Attempt: 8},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf []byte
	recs := sampleRecords()
	for i, rec := range recs {
		buf = appendFrame(buf, uint64(i+1), rec)
	}
	var got []Record
	var seqs []uint64
	off, err := scanFrames(buf, func(seq uint64, rec Record) error {
		got = append(got, rec)
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatalf("scanFrames: %v", err)
	}
	if off != len(buf) {
		t.Fatalf("consumed %d of %d bytes", off, len(buf))
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if seqs[i] != uint64(i+1) {
			t.Errorf("record %d: seq %d, want %d", i, seqs[i], i+1)
		}
		if !reflect.DeepEqual(got[i], recs[i]) {
			t.Errorf("record %d: round-trip mismatch\n got %#v\nwant %#v", i, got[i], recs[i])
		}
	}
}

func TestTornTailStopsCleanly(t *testing.T) {
	var buf []byte
	for i, rec := range sampleRecords() {
		buf = appendFrame(buf, uint64(i+1), rec)
	}
	// Chop bytes off the end one at a time: every prefix must decode
	// some whole number of frames and stop with errShortFrame or
	// ErrCorrupt — never panic, never return garbage records.
	total := len(sampleRecords())
	for cut := 1; cut < 40; cut++ {
		torn := buf[:len(buf)-cut]
		n := 0
		off, err := scanFrames(torn, func(uint64, Record) error { n++; return nil })
		if err == nil {
			// Legal only when the cut landed exactly on a frame
			// boundary: whole frames decode, the rest vanish.
			if off != len(torn) || n >= total {
				t.Fatalf("cut %d: clean EOF but off=%d len=%d n=%d", cut, off, len(torn), n)
			}
			continue
		}
		if !errors.Is(err, errShortFrame) && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: unexpected error %v", cut, err)
		}
		if off > len(torn) {
			t.Fatalf("cut %d: offset %d past buffer %d", cut, off, len(torn))
		}
	}
}

func TestCorruptFrameDetected(t *testing.T) {
	buf := appendFrame(nil, 1, &AttemptRecord{User: "alice", Attempt: 1})
	buf = appendFrame(buf, 2, &AttemptRecord{User: "bob", Attempt: 2})
	// Flip one payload byte of the first frame: CRC must catch it.
	bad := append([]byte(nil), buf...)
	bad[frameHeader+3] ^= 0xff
	_, err := scanFrames(bad, func(uint64, Record) error { return nil })
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("corrupted payload: got %v, want ErrCorrupt", err)
	}
}

func TestOversizedFrameRejected(t *testing.T) {
	buf := []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0, 0}
	_, _, _, err := readFrame(buf)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized frame: got %v, want ErrCorrupt", err)
	}
}

func TestUnknownKindRejected(t *testing.T) {
	// Hand-build a frame with kind 200 and a valid CRC.
	payload := []byte{200, 0, 0, 0, 0, 0, 0, 0, 1}
	frame := codec.AppendU32(nil, uint32(len(payload)))
	frame = codec.AppendU32(frame, crcOf(payload))
	frame = append(frame, payload...)
	_, _, _, err := readFrame(frame)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("unknown kind: got %v, want ErrCorrupt", err)
	}
}

func TestTrailingBytesRejected(t *testing.T) {
	// A GCRecord body must be empty; append a stray byte.
	payload := []byte{kindGC, 0, 0, 0, 0, 0, 0, 0, 1, 0xee}
	frame := codec.AppendU32(nil, uint32(len(payload)))
	frame = codec.AppendU32(frame, crcOf(payload))
	frame = append(frame, payload...)
	_, _, _, err := readFrame(frame)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: got %v, want ErrCorrupt", err)
	}
}

func crcOf(p []byte) uint32 {
	return crc32.Checksum(p, castagnoli)
}
