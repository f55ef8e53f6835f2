package storage

import (
	"errors"
	"sync"
)

// ErrInjected is the failure a FaultEngine returns once its trigger
// fires. Providers treat it like any other storage failure; the crash
// harness checks for it to confirm the fault tripped where intended.
var ErrInjected = errors.New("storage: injected fault")

// FaultEngine wraps an Engine for the crash/restart harness. Arm it
// with FailAppendAt/FailSyncAt; once the n-th matching operation runs,
// the fault trips: that operation fails, the record never reaches the
// inner engine, and every later operation fails too — the moral
// equivalent of the process dying at that exact point. The harness
// then reopens the inner engine (or its directory) to model restart.
//
// Because the failing Append never reaches the inner engine, a tripped
// FaultEngine models a hard kill: writes stop mid-stream with no
// shutdown path. Pair with TornTail/CorruptTail on a FileEngine's WAL
// to additionally model power loss eating post-fsync bytes.
type FaultEngine struct {
	inner Engine

	mu         sync.Mutex
	appends    int
	syncs      int
	failAppend int // 1-based count of the Append that trips; 0 = never
	failSync   int
	tripped    bool
}

// NewFault wraps inner with an unarmed fault injector.
func NewFault(inner Engine) *FaultEngine {
	return &FaultEngine{inner: inner}
}

// FailAppendAt arms the injector: counting from now, the n-th Append
// fails and trips the engine. n ≤ 0 disarms.
func (e *FaultEngine) FailAppendAt(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.appends = 0
	e.failAppend = n
}

// FailSyncAt arms the injector: counting from now, the n-th Sync fails
// and trips the engine. n ≤ 0 disarms.
//
//spin:testhook fault injection for the root package's crash tests
func (e *FaultEngine) FailSyncAt(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.syncs = 0
	e.failSync = n
}

// Append implements Engine.
func (e *FaultEngine) Append(rec Record) (uint64, error) {
	e.mu.Lock()
	if e.tripped {
		e.mu.Unlock()
		return 0, ErrInjected
	}
	e.appends++
	if e.failAppend > 0 && e.appends >= e.failAppend {
		e.tripped = true
		e.mu.Unlock()
		return 0, ErrInjected
	}
	e.mu.Unlock()
	return e.inner.Append(rec)
}

// Sync implements Engine.
func (e *FaultEngine) Sync() error {
	e.mu.Lock()
	if e.tripped {
		e.mu.Unlock()
		return ErrInjected
	}
	e.syncs++
	if e.failSync > 0 && e.syncs >= e.failSync {
		e.tripped = true
		e.mu.Unlock()
		return ErrInjected
	}
	e.mu.Unlock()
	return e.inner.Sync()
}

// LastSeq implements Engine.
func (e *FaultEngine) LastSeq() uint64 { return e.inner.LastSeq() }

// WriteSnapshot implements Engine.
func (e *FaultEngine) WriteSnapshot(snap *Snapshot) error {
	e.mu.Lock()
	tripped := e.tripped
	e.mu.Unlock()
	if tripped {
		return ErrInjected
	}
	return e.inner.WriteSnapshot(snap)
}

// Replay implements Engine. Replay stays available even after the trip
// so a harness can inspect what survived without reopening.
func (e *FaultEngine) Replay(fn func(seq uint64, rec Record) error) (Stats, error) {
	return e.inner.Replay(fn)
}

// Close implements Engine: the inner engine is closed without any
// flush, as a killed process would leave it.
func (e *FaultEngine) Close() error { return e.inner.Close() }
