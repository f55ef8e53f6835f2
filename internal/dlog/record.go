package dlog

import (
	"errors"
	"fmt"

	"safetypin/internal/codec"
	"safetypin/internal/logtree"
)

// ChunkRecord is the provider's commitment for one audit chunk. Its
// encoding is the Merkle leaf of the audit tree, which every auditing HSM
// hashes and decodes from provider-supplied bytes.
type ChunkRecord struct {
	Index int
	DPrev logtree.Digest
	DNext logtree.Digest
	Proof *logtree.ExtensionProof
}

// chunkRecordVersion is the first byte of every encoded ChunkRecord.
const chunkRecordVersion = 2

var errChunkRecord = errors.New("dlog: malformed chunk record")

// appendChunkRecord appends r's canonical encoding to dst:
//
//	record = version(u8) ‖ index(u32) ‖ DPrev(32) ‖ DNext(32) ‖ n(u32) ‖ n × insert
//	insert = id(blob) ‖ val(blob) ‖ trace
//	trace  = 1(u8)                                  the tree was empty
//	       | 0(u8) ‖ k(u32) ‖ k × (bitPos(u8) ‖ sibling(32)) ‖ leafKey(32) ‖ leafValHash(32)
//
// Integers are big-endian and a blob is its u32 length, then its bytes.
func appendChunkRecord(dst []byte, r ChunkRecord) []byte {
	dst = append(dst, chunkRecordVersion)
	dst = codec.AppendU32(dst, uint32(r.Index))
	dst = append(dst, r.DPrev[:]...)
	dst = append(dst, r.DNext[:]...)
	dst = codec.AppendU32(dst, uint32(len(r.Proof.Inserts)))
	for _, in := range r.Proof.Inserts {
		dst = codec.AppendBlob(dst, in.ID)
		dst = codec.AppendBlob(dst, in.Val)
		dst = codec.AppendBool(dst, in.Trace.Empty)
		if in.Trace.Empty {
			continue
		}
		dst = codec.AppendU32(dst, uint32(len(in.Trace.Steps)))
		for _, s := range in.Trace.Steps {
			dst = append(dst, byte(s.BitPos))
			dst = append(dst, s.Sibling[:]...)
		}
		dst = append(dst, in.Trace.LeafKey[:]...)
		dst = append(dst, in.Trace.LeafValHash[:]...)
	}
	return dst
}

// decodeChunkRecord parses exactly one encoded ChunkRecord. It accepts only
// canonical input: whatever it accepts re-encodes to the same bytes.
func decodeChunkRecord(b []byte) (ChunkRecord, error) {
	r := codec.NewReader(b)
	if v := r.U8(); v != chunkRecordVersion {
		return ChunkRecord{}, fmt.Errorf("%w: version %d", errChunkRecord, v)
	}
	rec := ChunkRecord{Index: int(r.U32()), DPrev: r.Hash(), DNext: r.Hash()}
	// Each count is checked against the fewest bytes an element takes
	// (an insert: two empty blobs and a flag; a step: 1 + 32) before any
	// allocation.
	inserts := make([]logtree.InsertStep, r.Count(4+4+1))
	traces := make([]logtree.Trace, len(inserts))
	for i := range inserts {
		tr := &traces[i]
		inserts[i] = logtree.InsertStep{ID: r.Blob(), Val: r.Blob(), Trace: tr}
		if tr.Empty = r.Bool(); tr.Empty {
			continue
		}
		tr.Steps = make([]logtree.TraceStep, r.Count(1+32))
		for j := range tr.Steps {
			tr.Steps[j] = logtree.TraceStep{BitPos: int(r.U8()), Sibling: r.Hash()}
		}
		tr.LeafKey, tr.LeafValHash = r.Hash(), r.Hash()
	}
	if !r.Done() {
		return ChunkRecord{}, errChunkRecord
	}
	rec.Proof = &logtree.ExtensionProof{Inserts: inserts}
	return rec, nil
}
