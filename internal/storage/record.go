package storage

import (
	"errors"
	"fmt"

	"safetypin/internal/codec"
)

// Record kinds. The byte value is part of the on-disk format — append
// new kinds, never renumber.
const (
	kindAttempt       byte = 1
	kindCiphertext    byte = 2
	kindLogInsert     byte = 3
	kindEpochCommit   byte = 4
	kindEscrow        byte = 5
	kindEscrowClear   byte = 6
	kindOraclePut     byte = 7
	kindOracleClear   byte = 8
	kindRoster        byte = 9
	kindGC            byte = 10
	kindPendingDrop   byte = 11
	kindSnapshotMeta  byte = 12
	kindAttemptReject byte = 13
)

// ErrCorrupt reports a frame or record body that is structurally
// invalid: bad CRC, impossible length, unknown kind, or trailing bytes.
var ErrCorrupt = errors.New("storage: corrupt record")

// Record is one journaled state change. Implementations are plain
// structs with exported fields; the codec is hand-rolled so that
// malformed input errors instead of panicking.
type Record interface {
	// Kind returns the on-disk record tag.
	Kind() byte
	// append encodes the body onto dst and returns the extended slice.
	append(dst []byte) []byte
	// decode parses the body, rejecting short or oversized input.
	decode(b []byte) error
}

// AttemptRecord journals a per-user recovery-attempt reservation:
// after replay the user's counter is at least Attempt+1. Synced before
// the reservation is acknowledged so a kill -9 can never un-burn a
// guess.
type AttemptRecord struct {
	User    string
	Attempt uint32
}

// AttemptRejectRecord journals an over-limit recovery attempt being
// refused: the user's counter stood at Attempt (≥ the limit) and no
// reservation was granted. Synced before the rejection is served, it
// pins the counter across a crash — replay restores the counter to at
// least Attempt, so a kill -9 right after an observed rejection can
// never resurrect the guess budget, even if the records that advanced
// the counter were in the unsynced journal tail.
type AttemptRejectRecord struct {
	User    string
	Attempt uint32
}

// CiphertextRecord journals a stored backup ciphertext at an explicit
// slot index, making replay idempotent (re-applying the record is a
// no-op rather than a duplicate append).
type CiphertextRecord struct {
	User  string
	Index uint32
	Blob  []byte
}

// LogInsertRecord journals one log-tree insertion, in exactly the
// order the distributed log accepted it. Ordering matters: epoch
// commits consume the first NumEntries pending insertions on replay.
// WAL records always have Pending true (an insertion is pending when
// accepted); snapshots use Pending false for entries already folded
// into the committed tree.
type LogInsertRecord struct {
	ID      []byte
	Val     []byte
	Pending bool
}

// EpochCommitRecord journals a committed log epoch: the signed header,
// the aggregate signature and signer set, and how many pending
// insertions the epoch consumed. It carries everything needed to
// re-deliver the commit message to an HSM that missed the original
// fan-out.
type EpochCommitRecord struct {
	Epoch      uint64
	NumEntries uint32 // pending insertions consumed by this epoch
	OldDigest  [32]byte
	NewDigest  [32]byte
	Root       [32]byte
	NumChunks  uint32
	NumEntry   uint32 // header field: entries in the committed batch
	AggSig     []byte
	Signers    []uint32
}

// EscrowRecord journals one escrowed recovery reply for
// client-independent completion (PR 3): keyed by (user, attempt,
// share position) so replay is idempotent and eviction deterministic.
type EscrowRecord struct {
	User     string
	Attempt  uint32
	HSMIndex uint32
	SharePos uint32
	Box      []byte
}

// EscrowClearRecord journals the client acknowledging receipt: the
// user's escrow box is deleted.
type EscrowClearRecord struct {
	User string
}

// OraclePutRecord journals one block written to an HSM's outsourced
// securestore oracle. Write-only class: forced to disk at the next
// epoch barrier, not per write.
type OraclePutRecord struct {
	HSMID uint32
	Addr  uint64
	Block []byte
}

// OracleClearRecord journals an oracle being discarded wholesale
// (HSM key rotation installs a fresh store).
type OracleClearRecord struct {
	HSMID uint32
}

// RosterRecord journals one HSM joining the epoch roster: its dial
// address and public keys, enough for a restarted provider daemon to
// re-establish the fleet without waiting for re-registration.
type RosterRecord struct {
	ID     uint32
	Addr   string
	BFEPub []byte
	AggPub []byte
}

// GCRecord journals a log garbage collection: the committed tree is
// reset and all attempt counters return to zero.
type GCRecord struct{}

// PendingDropRecord journals recovery dropping Count uncommitted
// pending insertions. Without it a later replay would feed those same
// dropped insertions into the next EpochCommitRecord and diverge.
type PendingDropRecord struct {
	Count uint32
}

// snapshotMeta is the first record of a snapshot file: format version,
// the journal sequence number the snapshot covers, and the record
// count (so a truncated snapshot is detected as corrupt, not silently
// short).
type snapshotMeta struct {
	Version uint32
	BaseSeq uint64
	Count   uint32
}

const snapshotVersion = 1

// done returns ErrCorrupt if any read failed or bytes remain.
func done(r *codec.Reader) error {
	if !r.Done() {
		return ErrCorrupt
	}
	return nil
}

// --- per-record codecs -------------------------------------------------

func (rec *AttemptRecord) Kind() byte { return kindAttempt }
func (rec *AttemptRecord) append(dst []byte) []byte {
	dst = codec.AppendStr(dst, rec.User)
	return codec.AppendU32(dst, rec.Attempt)
}
func (rec *AttemptRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.User = r.Str()
	rec.Attempt = r.U32()
	return done(&r)
}

func (rec *AttemptRejectRecord) Kind() byte { return kindAttemptReject }
func (rec *AttemptRejectRecord) append(dst []byte) []byte {
	dst = codec.AppendStr(dst, rec.User)
	return codec.AppendU32(dst, rec.Attempt)
}
func (rec *AttemptRejectRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.User = r.Str()
	rec.Attempt = r.U32()
	return done(&r)
}

func (rec *CiphertextRecord) Kind() byte { return kindCiphertext }
func (rec *CiphertextRecord) append(dst []byte) []byte {
	dst = codec.AppendStr(dst, rec.User)
	dst = codec.AppendU32(dst, rec.Index)
	return codec.AppendBlob(dst, rec.Blob)
}
func (rec *CiphertextRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.User = r.Str()
	rec.Index = r.U32()
	rec.Blob = r.Blob()
	return done(&r)
}

func (rec *LogInsertRecord) Kind() byte { return kindLogInsert }
func (rec *LogInsertRecord) append(dst []byte) []byte {
	dst = codec.AppendBlob(dst, rec.ID)
	dst = codec.AppendBlob(dst, rec.Val)
	return codec.AppendBool(dst, rec.Pending)
}
func (rec *LogInsertRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.ID = r.Blob()
	rec.Val = r.Blob()
	rec.Pending = r.Bool()
	return done(&r)
}

func (rec *EpochCommitRecord) Kind() byte { return kindEpochCommit }
func (rec *EpochCommitRecord) append(dst []byte) []byte {
	dst = codec.AppendU64(dst, rec.Epoch)
	dst = codec.AppendU32(dst, rec.NumEntries)
	dst = append(dst, rec.OldDigest[:]...)
	dst = append(dst, rec.NewDigest[:]...)
	dst = append(dst, rec.Root[:]...)
	dst = codec.AppendU32(dst, rec.NumChunks)
	dst = codec.AppendU32(dst, rec.NumEntry)
	dst = codec.AppendBlob(dst, rec.AggSig)
	dst = codec.AppendU32(dst, uint32(len(rec.Signers)))
	for _, s := range rec.Signers {
		dst = codec.AppendU32(dst, s)
	}
	return dst
}
func (rec *EpochCommitRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.Epoch = r.U64()
	rec.NumEntries = r.U32()
	rec.OldDigest = r.Hash()
	rec.NewDigest = r.Hash()
	rec.Root = r.Hash()
	rec.NumChunks = r.U32()
	rec.NumEntry = r.U32()
	rec.AggSig = r.Blob()
	rec.Signers = make([]uint32, r.Count(4))
	for i := range rec.Signers {
		rec.Signers[i] = r.U32()
	}
	return done(&r)
}

func (rec *EscrowRecord) Kind() byte { return kindEscrow }
func (rec *EscrowRecord) append(dst []byte) []byte {
	dst = codec.AppendStr(dst, rec.User)
	dst = codec.AppendU32(dst, rec.Attempt)
	dst = codec.AppendU32(dst, rec.HSMIndex)
	dst = codec.AppendU32(dst, rec.SharePos)
	return codec.AppendBlob(dst, rec.Box)
}
func (rec *EscrowRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.User = r.Str()
	rec.Attempt = r.U32()
	rec.HSMIndex = r.U32()
	rec.SharePos = r.U32()
	rec.Box = r.Blob()
	return done(&r)
}

func (rec *EscrowClearRecord) Kind() byte { return kindEscrowClear }
func (rec *EscrowClearRecord) append(dst []byte) []byte {
	return codec.AppendStr(dst, rec.User)
}
func (rec *EscrowClearRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.User = r.Str()
	return done(&r)
}

func (rec *OraclePutRecord) Kind() byte { return kindOraclePut }
func (rec *OraclePutRecord) append(dst []byte) []byte {
	dst = codec.AppendU32(dst, rec.HSMID)
	dst = codec.AppendU64(dst, rec.Addr)
	return codec.AppendBlob(dst, rec.Block)
}
func (rec *OraclePutRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.HSMID = r.U32()
	rec.Addr = r.U64()
	rec.Block = r.Blob()
	return done(&r)
}

func (rec *OracleClearRecord) Kind() byte { return kindOracleClear }
func (rec *OracleClearRecord) append(dst []byte) []byte {
	return codec.AppendU32(dst, rec.HSMID)
}
func (rec *OracleClearRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.HSMID = r.U32()
	return done(&r)
}

func (rec *RosterRecord) Kind() byte { return kindRoster }
func (rec *RosterRecord) append(dst []byte) []byte {
	dst = codec.AppendU32(dst, rec.ID)
	dst = codec.AppendStr(dst, rec.Addr)
	dst = codec.AppendBlob(dst, rec.BFEPub)
	return codec.AppendBlob(dst, rec.AggPub)
}
func (rec *RosterRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.ID = r.U32()
	rec.Addr = r.Str()
	rec.BFEPub = r.Blob()
	rec.AggPub = r.Blob()
	return done(&r)
}

func (rec *GCRecord) Kind() byte               { return kindGC }
func (rec *GCRecord) append(dst []byte) []byte { return dst }
func (rec *GCRecord) decode(b []byte) error {
	if len(b) != 0 {
		return ErrCorrupt
	}
	return nil
}

func (rec *PendingDropRecord) Kind() byte { return kindPendingDrop }
func (rec *PendingDropRecord) append(dst []byte) []byte {
	return codec.AppendU32(dst, rec.Count)
}
func (rec *PendingDropRecord) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.Count = r.U32()
	return done(&r)
}

func (rec *snapshotMeta) Kind() byte { return kindSnapshotMeta }
func (rec *snapshotMeta) append(dst []byte) []byte {
	dst = codec.AppendU32(dst, rec.Version)
	dst = codec.AppendU64(dst, rec.BaseSeq)
	return codec.AppendU32(dst, rec.Count)
}
func (rec *snapshotMeta) decode(b []byte) error {
	r := codec.NewReader(b)
	rec.Version = r.U32()
	rec.BaseSeq = r.U64()
	rec.Count = r.U32()
	return done(&r)
}

// newRecord returns a zero value of the record type for an on-disk kind.
func newRecord(kind byte) (Record, error) {
	switch kind {
	case kindAttempt:
		return &AttemptRecord{}, nil
	case kindCiphertext:
		return &CiphertextRecord{}, nil
	case kindLogInsert:
		return &LogInsertRecord{}, nil
	case kindEpochCommit:
		return &EpochCommitRecord{}, nil
	case kindEscrow:
		return &EscrowRecord{}, nil
	case kindEscrowClear:
		return &EscrowClearRecord{}, nil
	case kindOraclePut:
		return &OraclePutRecord{}, nil
	case kindOracleClear:
		return &OracleClearRecord{}, nil
	case kindRoster:
		return &RosterRecord{}, nil
	case kindGC:
		return &GCRecord{}, nil
	case kindPendingDrop:
		return &PendingDropRecord{}, nil
	case kindSnapshotMeta:
		return &snapshotMeta{}, nil
	case kindAttemptReject:
		return &AttemptRejectRecord{}, nil
	default:
		return nil, fmt.Errorf("%w: unknown kind %d", ErrCorrupt, kind)
	}
}
