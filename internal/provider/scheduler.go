package provider

// scheduler.go implements the provider's epoch scheduler: the batching and
// fan-out engine behind the distributed log (Figure 5, §6.2).
//
// The paper commits log updates every ~10 minutes, so thousands of
// concurrent recoveries share one epoch's audit cost. The scheduler models
// that: log insertions accumulate while a round gathers (BatchWindow, or
// until MaxBatch insertions are pending), then one leader goroutine runs
// the epoch for every waiter at once. Callers block on WaitForCommit(ctx)
// instead of driving epochs themselves; a caller whose context is cancelled
// is unsubscribed from the round immediately — the shared epoch still runs
// for the remaining waiters, but nothing holds a reference to the
// abandoned one.
//
// Two triggers fire a round: the gathering window and the batch-size
// limit. A third, optional standing timer (EngineConfig.EpochInterval)
// commits pending insertions on a fixed cadence even when no WaitForCommit
// waiter is blocked — the daemon configuration for the paper's true
// 10-minute epochs, where raw LogRecoveryAttempt traffic trickles in
// without anyone waiting on it.
//
// Epoch execution fans the choose/audit/commit exchanges out to the fleet
// through a bounded worker pool. Each audit worker decodes its HSM's
// signature onto the curve as it returns, with no membership test; a
// signature that does not decode, or is the identity, leaves its HSM out
// of the signer set, as an unreachable HSM is. The commit sums the
// signatures and proves the sum in G1 once, with the cofactor preimage
// the HSMs' commit check takes, before anything is journaled; only if
// that fails does each summand take the membership test, and those
// outside G1 are left out too (dlog.Provider.Commit).
// Each per-HSM exchange runs under a context bounded by AuditTimeout, so a
// slow or hung HSM is skipped (and, over a context-aware transport, its
// in-flight RPC cancelled) after at most that long; the epoch still
// commits if a quorum signs.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"safetypin/internal/aggsig"
	"safetypin/internal/dlog"
)

// ErrProviderClosed is delivered to every in-flight WaitForCommit waiter
// when the provider shuts down, and returned by later waits. A waiter
// must never block forever on a provider that will not run another
// epoch.
var ErrProviderClosed = errors.New("provider: closed")

// waiter is one WaitForCommit subscription: the round's result is delivered
// on ch (buffered, so the leader never blocks on a slow receiver).
type waiter struct {
	ch chan error
}

// epochRound is one gathering window: every waiter subscribed before the
// round fires shares the same epoch execution and result.
type epochRound struct {
	fire    chan struct{}        // closed to trigger the commit early
	fired   bool                 // guarded by epochScheduler.mu
	waiters map[*waiter]struct{} // guarded by epochScheduler.mu
}

// epochScheduler batches log insertions into shared epochs.
type epochScheduler struct {
	p  *Provider
	mu sync.Mutex
	// cur is the round currently gathering waiters; nil when none. A
	// round is detached (cur = nil) before its epoch builds, so any
	// insertion appended while a round is joinable is guaranteed to be
	// included in that round's epoch.
	cur *epochRound
	// rounds tracks every round whose result has not yet been delivered,
	// including the detached one an epoch is running for — close must be
	// able to wake its waiters too. Guarded by mu.
	rounds map[*epochRound]struct{}
	// closed rejects new rounds after close. Guarded by mu.
	closed bool
	// commitMu serializes epoch executions: the dlog stages exactly one
	// epoch at a time.
	commitMu sync.Mutex
	// commits counts successful epochs for the snapshot cadence. Guarded
	// by commitMu.
	commits int

	stop     chan struct{}
	stopOnce sync.Once
}

func newEpochScheduler(p *Provider) *epochScheduler {
	s := &epochScheduler{p: p, rounds: make(map[*epochRound]struct{}), stop: make(chan struct{})}
	if p.engine.EpochInterval > 0 {
		go s.standingTimer(p.engine.EpochInterval)
	}
	return s
}

// close stops the standing timer, rejects future rounds, and wakes every
// waiter of every undelivered round with ErrProviderClosed (idempotent).
// Leaders still in flight find their round's waiter list already nil and
// deliver to no one.
func (s *epochScheduler) close() {
	s.stopOnce.Do(func() {
		close(s.stop)
		s.mu.Lock()
		s.closed = true
		s.cur = nil
		var orphaned []map[*waiter]struct{}
		for r := range s.rounds {
			if !r.fired {
				r.fired = true
				close(r.fire)
			}
			orphaned = append(orphaned, r.waiters)
			r.waiters = nil
		}
		s.rounds = make(map[*epochRound]struct{})
		s.mu.Unlock()
		for _, ws := range orphaned {
			for w := range ws {
				w.ch <- ErrProviderClosed
			}
		}
	})
}

// standingTimer commits pending insertions on a fixed cadence even when no
// waiter is blocked — the daemon mode for the paper's 10-minute epochs.
func (s *epochScheduler) standingTimer(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			if s.p.log.PendingLen() > 0 {
				_ = s.commitNow(context.Background())
			}
		case <-s.stop:
			return
		}
	}
}

// waitForCommit subscribes to the current round (starting one if needed)
// and blocks until its epoch attempt finishes or ctx is cancelled. A
// cancelled waiter is removed from the round's subscription list before
// returning. "Nothing pending" is success here: it means an earlier epoch
// already committed everything this caller appended.
func (s *epochScheduler) waitForCommit(ctx context.Context) error {
	w := &waiter{ch: make(chan error, 1)}
	s.mu.Lock()
	r := s.openRoundLocked()
	if r == nil {
		s.mu.Unlock()
		return ErrProviderClosed
	}
	r.waiters[w] = struct{}{}
	s.mu.Unlock()
	select {
	case err := <-w.ch:
		if errors.Is(err, dlog.ErrNoPending) {
			return nil
		}
		return err
	case <-ctx.Done():
		s.unsubscribe(r, w)
		return ctx.Err()
	}
}

// openRoundLocked returns the gathering round, creating and leading a fresh
// one when none is open. It returns nil after close. Callers hold s.mu.
func (s *epochScheduler) openRoundLocked() *epochRound {
	if s.closed {
		return nil
	}
	if s.cur == nil {
		r := &epochRound{fire: make(chan struct{}), waiters: make(map[*waiter]struct{})}
		s.cur = r
		s.rounds[r] = struct{}{}
		go s.lead(r)
	}
	return s.cur
}

// unsubscribe removes a cancelled waiter from a round's subscription list.
// After the round delivered its result the list is nil and this is a no-op.
func (s *epochScheduler) unsubscribe(r *epochRound, w *waiter) {
	s.mu.Lock()
	delete(r.waiters, w)
	s.mu.Unlock()
}

// notePending fires the gathering round early once the pending batch is
// large enough (the size trigger; the timer is the time trigger).
func (s *epochScheduler) notePending(pending int) {
	if pending < s.p.engine.MaxBatch {
		return
	}
	s.mu.Lock()
	if r := s.cur; r != nil && !r.fired {
		r.fired = true
		close(r.fire)
	}
	s.mu.Unlock()
}

// commitNow forces an epoch over everything currently pending: it fires the
// gathering round (or starts one) and waits for the result, errors
// included. Provider.RunEpoch is this. Cancelling ctx abandons the wait
// (the epoch itself still runs for any other subscriber).
func (s *epochScheduler) commitNow(ctx context.Context) error {
	w := &waiter{ch: make(chan error, 1)}
	s.mu.Lock()
	r := s.openRoundLocked()
	if r == nil {
		s.mu.Unlock()
		return ErrProviderClosed
	}
	r.waiters[w] = struct{}{}
	if !r.fired {
		r.fired = true
		close(r.fire)
	}
	s.mu.Unlock()
	select {
	case err := <-w.ch:
		return err
	case <-ctx.Done():
		s.unsubscribe(r, w)
		return ctx.Err()
	}
}

// lead waits out the gathering window (or an early fire), detaches the
// round, executes its epoch, and delivers the result to every waiter still
// subscribed.
func (s *epochScheduler) lead(r *epochRound) {
	t := time.NewTimer(s.p.engine.BatchWindow)
	select {
	case <-t.C:
	case <-r.fire:
		t.Stop()
	}
	s.mu.Lock()
	if s.cur == r {
		s.cur = nil
	}
	closed := s.closed
	s.mu.Unlock()
	var err error
	if closed {
		err = ErrProviderClosed
	} else {
		s.commitMu.Lock()
		err = s.p.runEpochNow(context.Background())
		if err == nil || errors.Is(err, dlog.ErrNoPending) {
			s.commits++
			if every := s.p.engine.SnapshotEvery; every > 0 && s.commits%every == 0 {
				// Best-effort compaction: a failed snapshot leaves the
				// journal longer, not the state wrong.
				_ = s.p.SnapshotNow()
			}
		}
		s.commitMu.Unlock()
	}
	s.mu.Lock()
	ws := r.waiters
	r.waiters = nil // late unsubscribes become no-ops
	delete(s.rounds, r)
	s.mu.Unlock()
	for w := range ws {
		w.ch <- err
	}
}

// hsmResult is one HSM's contribution to an epoch phase (sig is nil for
// the commit phase).
type hsmResult struct {
	id  int
	sig aggsig.Signature
	err error
}

// fanOutWidth is the most goroutines a fan-out runs for a configured
// EngineConfig.EpochWorkers (0 → 16).
func fanOutWidth(workers int) int {
	if workers <= 0 {
		return 16
	}
	return workers
}

// fanOut runs fn against every handle through a pool of at most workers
// goroutines and returns the results in completion order. Both epoch
// phases (audit, commit) go through here so the bounding and skip
// semantics live in one place.
func fanOut(ctx context.Context, handles []HSMHandle, workers int, fn func(context.Context, HSMHandle) hsmResult) []hsmResult {
	workers = fanOutWidth(workers)
	if workers > len(handles) {
		workers = len(handles)
	}
	jobs := make(chan HSMHandle)
	results := make(chan hsmResult, len(handles))
	for w := 0; w < workers; w++ {
		go func() {
			for h := range jobs {
				results <- fn(ctx, h)
			}
		}()
	}
	go func() {
		for _, h := range handles {
			jobs <- h
		}
		close(jobs)
	}()
	out := make([]hsmResult, 0, len(handles))
	for range handles {
		out = append(out, <-results)
	}
	return out
}

// runEpochNow executes one epoch over the current pending batch: build,
// fan out the audit to the fleet (each worker decoding its signature),
// sum, prove the sum in G1 and commit, prove the commit's residue
// witness, fan out the commit.
// The caller (scheduler) serializes invocations.
func (p *Provider) runEpochNow(ctx context.Context) error {
	roster := p.signingRoster()
	if roster == nil {
		return errors.New("provider: no signing roster installed")
	}
	hdr, err := p.log.BuildEpoch()
	if err != nil {
		return err
	}
	handles := p.handles()
	if len(handles) == 0 {
		p.log.Abort()
		return errors.New("provider: epoch gathered no signatures")
	}

	// Audit fan-out: gather decoded signatures from every reachable HSM.
	var sigs []aggsig.Signature
	var signers []int
	var firstErr error
	for _, r := range fanOut(ctx, handles, p.engine.EpochWorkers, func(ctx context.Context, h HSMHandle) hsmResult {
		raw, err := p.auditOne(ctx, h, hdr)
		if err != nil {
			return hsmResult{id: h.ID(), err: err}
		}
		sig, err := aggsig.ParseSignature(raw)
		if err != nil {
			return hsmResult{id: h.ID(), err: fmt.Errorf("provider: HSM %d signature: %w", h.ID(), err)}
		}
		return hsmResult{id: h.ID(), sig: sig}
	}) {
		if r.err != nil {
			if firstErr == nil {
				firstErr = r.err
			}
			continue
		}
		sigs = append(sigs, r.sig)
		signers = append(signers, r.id)
	}
	if len(sigs) == 0 {
		p.log.Abort()
		if firstErr != nil {
			return fmt.Errorf("provider: epoch gathered no signatures: %w", firstErr)
		}
		return errors.New("provider: epoch gathered no signatures")
	}
	cm, err := p.log.Commit(sigs, signers)
	if err != nil {
		return err
	}
	// The commit's residue witness is proved while the barrier syncs;
	// Commit proved its preimage.
	type proof struct {
		witness []byte
		err     error
	}
	proved := make(chan proof, 1)
	go func() {
		w, _, err := dlog.ProveCommit(roster, cm)
		proved <- proof{w, err}
	}()
	// The epoch barrier: the commit record (journaled by the dlog hook
	// inside Commit) and every insertion it consumed must be on stable
	// storage before any HSM or waiter learns the epoch exists. One fsync
	// covers the whole batch.
	if err := p.syncStore(); err != nil {
		return fmt.Errorf("provider: epoch durability barrier: %w", err)
	}
	pr := <-proved
	if pr.err != nil {
		return fmt.Errorf("provider: proving the epoch commit: %w", pr.err)
	}
	// cm is also lastCommit, which ResendLastCommit copies under durMu.
	p.durMu.Lock()
	cm.Witness = pr.witness
	p.durMu.Unlock()

	// Commit fan-out: every HSM learns the new digest. The provider's log
	// has already committed; an unreachable HSM just misses the digest
	// (and will refuse stale-digest work until re-synced), so delivery
	// failures are fatal only when every delivery failed — one dead HSM
	// must not fail every recovery batched into this epoch.
	var commitErr error
	delivered := 0
	for _, r := range fanOut(ctx, handles, p.engine.EpochWorkers, func(ctx context.Context, h HSMHandle) hsmResult {
		return hsmResult{id: h.ID(), err: p.commitOne(ctx, h, cm)}
	}) {
		if r.err != nil {
			if commitErr == nil {
				commitErr = r.err
			}
		} else {
			delivered++
		}
	}
	if delivered == 0 && commitErr != nil {
		return fmt.Errorf("provider: no HSM accepted the epoch commit: %w", commitErr)
	}
	return nil
}

// auditOne runs the choose-chunks/audit exchange with one HSM on the
// provider's exchange pool, under a context bounded by the engine's audit
// timeout, so a hung HSM cannot wedge the fan-out's worker — and over a
// context-aware transport the in-flight RPC itself is cancelled at the
// deadline.
func (p *Provider) auditOne(ctx context.Context, h HSMHandle, hdr dlog.EpochHeader) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, p.engine.AuditTimeout)
	defer cancel()
	var sig []byte
	var err error
	if p.exchanges.do(ctx, func() {
		// Retry the whole choose/audit sequence on transient failures: a
		// reconnected HSM must re-choose its chunks, not resume half an
		// exchange. Protocol rejections fail fast.
		err = p.withRetry(ctx, func() error {
			chunks, err := h.LogChooseChunks(ctx, hdr)
			if err != nil {
				return err
			}
			pkg, err := p.log.AuditPackageFor(chunks)
			if err != nil {
				return err
			}
			sig, err = h.LogHandleAudit(ctx, pkg)
			return err
		})
	}) != nil {
		return nil, fmt.Errorf("provider: HSM %d audit timed out: %w", h.ID(), ctx.Err())
	}
	return sig, err
}

// commitOne delivers the commit message to one HSM under the audit timeout.
func (p *Provider) commitOne(ctx context.Context, h HSMHandle, cm *dlog.CommitMessage) error {
	ctx, cancel := context.WithTimeout(ctx, p.engine.AuditTimeout)
	defer cancel()
	var err error
	if p.exchanges.do(ctx, func() {
		err = p.withRetry(ctx, func() error { return h.LogHandleCommit(ctx, cm) })
	}) != nil {
		return fmt.Errorf("provider: HSM %d commit timed out: %w", h.ID(), ctx.Err())
	}
	return err
}
