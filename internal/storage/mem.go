package storage

import "sync"

// memRec pairs a record with its assigned sequence number. Records are
// kept encoded so MemEngine exercises the same codec as FileEngine and
// replay returns fresh copies, never aliased state.
type memRec struct {
	seq   uint64
	frame []byte
}

// MemEngine is the in-memory engine: the default for tests and the
// fastest option when durability is not required. It intentionally
// outlives the Provider that writes it, so tests can "crash" a
// provider (drop it without Close) and Open a new one over the same
// engine — process-kill semantics, where everything written survives.
type MemEngine struct {
	mu     sync.Mutex
	snap   []memRec // encoded snapshot records, seq 0
	base   uint64   // BaseSeq of snap
	recs   []memRec // journal records with seq > base
	seq    uint64
	synced int // len(recs) covered by the last Sync
	closed bool
}

// NewMem returns an empty in-memory engine.
func NewMem() *MemEngine { return &MemEngine{} }

// Append implements Engine.
func (e *MemEngine) Append(rec Record) (uint64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return 0, ErrClosed
	}
	e.seq++
	e.recs = append(e.recs, memRec{seq: e.seq, frame: appendFrame(nil, e.seq, rec)})
	return e.seq, nil
}

// Sync implements Engine. For MemEngine it only advances the
// synced-prefix marker consumed by CrashClone.
func (e *MemEngine) Sync() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.synced = len(e.recs)
	return nil
}

// LastSeq implements Engine.
func (e *MemEngine) LastSeq() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.seq
}

// WriteSnapshot implements Engine.
func (e *MemEngine) WriteSnapshot(snap *Snapshot) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	encoded := make([]memRec, 0, len(snap.Records))
	for _, rec := range snap.Records {
		encoded = append(encoded, memRec{frame: appendFrame(nil, 0, rec)})
	}
	e.snap = encoded
	e.base = snap.BaseSeq
	// Drop journal records the snapshot now covers.
	keep := e.recs[:0:0]
	kept, syncedKept := 0, 0
	for i, r := range e.recs {
		if r.seq > snap.BaseSeq {
			keep = append(keep, r)
			kept++
			if i < e.synced {
				syncedKept++
			}
		}
	}
	e.recs = keep
	e.synced = syncedKept
	if snap.BaseSeq > e.seq {
		e.seq = snap.BaseSeq
	}
	return nil
}

// Replay implements Engine.
func (e *MemEngine) Replay(fn func(seq uint64, rec Record) error) (Stats, error) {
	e.mu.Lock()
	snap := append([]memRec(nil), e.snap...)
	recs := append([]memRec(nil), e.recs...)
	e.mu.Unlock()
	var st Stats
	decode := func(m memRec) (uint64, Record, error) {
		seq, rec, _, err := readFrame(m.frame)
		return seq, rec, err
	}
	for _, m := range snap {
		seq, rec, err := decode(m)
		if err != nil {
			return st, err
		}
		if err := fn(seq, rec); err != nil {
			return st, err
		}
		st.SnapshotRecords++
	}
	for _, m := range recs {
		seq, rec, err := decode(m)
		if err != nil {
			return st, err
		}
		if err := fn(seq, rec); err != nil {
			return st, err
		}
		st.WALRecords++
	}
	return st, nil
}

// Close implements Engine.
func (e *MemEngine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	return nil
}

// CrashClone returns a new engine holding the snapshot plus only the
// journal records covered by the last Sync — the state a power loss
// (not a mere process kill) would have preserved. The clone is open
// even if the original was closed.
//
//spin:testhook power-loss replay for the provider and root crash tests
func (e *MemEngine) CrashClone() *MemEngine {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := &MemEngine{
		snap: append([]memRec(nil), e.snap...),
		base: e.base,
		recs: append([]memRec(nil), e.recs[:e.synced]...),
		seq:  e.base,
	}
	if n := len(c.recs); n > 0 {
		c.seq = c.recs[n-1].seq
	}
	c.synced = len(c.recs)
	return c
}
