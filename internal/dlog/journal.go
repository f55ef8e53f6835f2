package dlog

import (
	"fmt"

	"safetypin/internal/logtree"
)

// journal.go is the durability seam between the distributed log and the
// provider's storage engine (internal/storage). The log itself stays
// storage-agnostic: the provider installs two hooks that are invoked
// under the log's own mutex, which guarantees the journal observes
// insertions and commits in exactly the order they mutate log state —
// the invariant replay depends on, because an epoch-commit record
// consumes the first NumEntries pending insertions by position.

// SetJournal installs the journal hooks. onAppend runs after an
// insertion passes duplicate checks but before it is queued; a hook
// error rejects the insertion, so nothing enters the pending batch that
// the journal has not recorded. onCommit runs after the aggregate
// signature is assembled but before the committed tree is swapped in; a
// hook error fails the commit and leaves the staged epoch in place.
// Both hooks run with the log mutex held: they must not call back into
// the log.
func (p *Provider) SetJournal(
	onAppend func(id, val []byte) error,
	onCommit func(msg *CommitMessage, numEntries int) error,
) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.onAppend = onAppend
	p.onCommit = onCommit
}

// SnapshotState returns an atomic copy of everything a storage snapshot
// must capture: the committed entries in insertion order (replaying
// them in order rebuilds the identical digest), the pending batch, the
// epoch counter, and the committed digest for replay verification.
func (p *Provider) SnapshotState() (committed, pending []logtree.Entry, epoch uint64, digest logtree.Digest) {
	p.mu.Lock()
	defer p.mu.Unlock()
	committed = p.tree.Entries()
	pending = append([]logtree.Entry(nil), p.pending...)
	return committed, pending, p.epoch, p.tree.Digest()
}

// RestoreAppend queues an insertion during journal replay, bypassing
// the journal hooks. Duplicates are ignored — a snapshot and the WAL
// tail may overlap, and replay must be idempotent.
func (p *Provider) RestoreAppend(id, val []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tree.Get(id); ok {
		return nil
	}
	if _, ok := p.pendingIDs[string(id)]; !ok {
		p.queueLocked(id, val)
	}
	return nil
}

// RestoreCommitted inserts an already-committed entry directly into the
// committed tree during snapshot replay. Duplicates are ignored.
func (p *Provider) RestoreCommitted(id, val []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.tree.Get(id); ok {
		return nil
	}
	return p.tree.Insert(id, val)
}

// SetEpoch force-sets the committed epoch counter during snapshot
// replay. It never moves the counter backwards.
func (p *Provider) SetEpoch(epoch uint64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch > p.epoch {
		p.epoch = epoch
	}
}

// RestoreCommit re-applies a journaled epoch commit during replay:
// consume the first numEntries pending insertions into the committed
// tree and advance the epoch counter, verifying the resulting digest
// against the journaled one. Commits at or below the current epoch are
// skipped (snapshot/WAL overlap); a gap or digest mismatch means the
// journal is inconsistent and recovery must fail loudly rather than
// serve a log HSMs will reject.
func (p *Provider) RestoreCommit(numEntries int, epoch uint64, want logtree.Digest) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if epoch <= p.epoch {
		return nil
	}
	if epoch != p.epoch+1 {
		return fmt.Errorf("dlog: replay epoch gap: have %d, journal commits %d", p.epoch, epoch)
	}
	if numEntries > len(p.pending) {
		return fmt.Errorf("dlog: replay epoch %d consumes %d entries, only %d pending",
			epoch, numEntries, len(p.pending))
	}
	next := p.tree.Clone()
	for _, e := range p.pending[:numEntries] {
		if err := next.Insert(e.ID, e.Val); err != nil {
			return fmt.Errorf("dlog: replay epoch %d: %w", epoch, err)
		}
	}
	if got := next.Digest(); got != want {
		return fmt.Errorf("dlog: replay epoch %d digest mismatch", epoch)
	}
	p.tree = next
	p.dropPendingLocked(numEntries)
	p.epoch = epoch
	return nil
}

// DropPendingN discards the first n pending insertions (replay of a
// journaled pending-drop). It returns how many were actually dropped.
func (p *Provider) DropPendingN(n int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n = min(n, len(p.pending))
	p.dropPendingLocked(n)
	return n
}

// DropPending discards every pending insertion — recovery's final step,
// because an uncommitted insertion was never acknowledged to its client
// (WaitForCommit had not returned) and replaying it into a half-built
// epoch would strand it. Returns the number dropped so the caller can
// journal a PendingDropRecord.
func (p *Provider) DropPending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.pending)
	p.pending = nil
	clear(p.pendingIDs)
	p.staged = nil
	return n
}
