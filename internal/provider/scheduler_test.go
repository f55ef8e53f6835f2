package provider

// scheduler_test.go pins the epoch scheduler's context semantics: a
// cancelled waiter is removed from the round's subscription list (no
// leak), a cancelled waiter does not disturb the shared epoch (the log
// stays consistent for everyone else), and the standing timer commits
// pending insertions with no waiter at all. All meant for -race.

import (
	"context"
	"errors"
	"io"
	"syscall"
	"testing"
	"time"

	"safetypin/internal/protocol"
)

// TestWaitForCommitCancelledWaiterUnsubscribed: a waiter whose context is
// cancelled must be removed from the scheduler's subscription list
// immediately, not retained until the round fires.
func TestWaitForCommitCancelledWaiterUnsubscribed(t *testing.T) {
	cfg := logCfg()
	// A long gathering window keeps the round open while we inspect it.
	p := mustOpen(t, cfg, EngineConfig{BatchWindow: 30 * time.Second})
	newStubFleet(t, p, 2, nil)
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- p.WaitForCommit(ctx) }()
	// Wait until the waiter is subscribed, then cancel it.
	deadline := time.After(5 * time.Second)
	for p.sched.waiterCount() == 0 {
		select {
		case <-deadline:
			t.Fatal("waiter never subscribed")
		case <-time.After(time.Millisecond):
		}
	}
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v", err)
	}
	for p.sched.waiterCount() != 0 {
		select {
		case <-deadline:
			t.Fatalf("cancelled waiter still subscribed (%d)", p.sched.waiterCount())
		case <-time.After(time.Millisecond):
		}
	}
	// The round is still gathering; flush it so the insertion commits.
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
}

// TestMidEpochCancellationLeavesLogConsistent: one of two concurrent
// waiters abandons the epoch mid-flight; the shared epoch still commits
// both insertions and the survivor sees success.
func TestMidEpochCancellationLeavesLogConsistent(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{BatchWindow: 50 * time.Millisecond})
	newStubFleet(t, p, 3, nil)
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("ha")); err != nil {
		t.Fatal(err)
	}
	if err := p.LogRecoveryAttempt(tctx, "bob", 0, []byte("hb")); err != nil {
		t.Fatal(err)
	}
	quitter, cancel := context.WithCancel(context.Background())
	quitterDone := make(chan error, 1)
	survivorDone := make(chan error, 1)
	go func() { quitterDone <- p.WaitForCommit(quitter) }()
	go func() { survivorDone <- p.WaitForCommit(tctx) }()
	cancel()
	if err := <-quitterDone; err != context.Canceled {
		t.Fatalf("quitter returned %v", err)
	}
	if err := <-survivorDone; err != nil {
		t.Fatalf("survivor failed after peer cancelled: %v", err)
	}
	// Both insertions — including the quitter's — are committed.
	for _, user := range []string{"alice", "bob"} {
		if !logged(p, protocol.LogID(user, 0)) {
			t.Fatalf("%s's insertion missing after epoch", user)
		}
	}
}

// TestStandingTimerCommitsWithoutWaiters: EpochInterval drives epochs on a
// fixed cadence even when nothing blocks on WaitForCommit — raw
// LogRecoveryAttempt traffic alone must reach the committed log.
func TestStandingTimerCommitsWithoutWaiters(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{
		BatchWindow:   time.Hour, // the gathering window never fires on its own
		EpochInterval: 10 * time.Millisecond,
	})
	defer p.Close()
	newStubFleet(t, p, 2, nil)
	if err := p.LogRecoveryAttempt(tctx, "idle-user", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	deadline := time.After(5 * time.Second)
	for {
		if logged(p, protocol.LogID("idle-user", 0)) {
			break
		}
		select {
		case <-deadline:
			t.Fatal("standing timer never committed the pending insertion")
		case <-time.After(2 * time.Millisecond):
		}
	}
	if p.PendingLogLen() != 0 {
		t.Fatal("pending batch left behind")
	}
}

// TestStandingTimerStopsOnClose: Close stops the ticker; insertions after
// Close stay pending (no background commits from a closed provider).
func TestStandingTimerStopsOnClose(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{
		BatchWindow:   time.Hour,
		EpochInterval: 5 * time.Millisecond,
	})
	newStubFleet(t, p, 2, nil)
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := p.LogRecoveryAttempt(tctx, "late-user", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if p.PendingLogLen() != 1 {
		t.Fatal("closed provider still running standing epochs")
	}
}

// TestCloseWakesBlockedWaiters: waiters blocked in WaitForCommit when the
// provider shuts down must all receive ErrProviderClosed — never hang on
// a round whose epoch will no longer run. Meant for -race.
func TestCloseWakesBlockedWaiters(t *testing.T) {
	cfg := logCfg()
	// The gathering window never fires on its own; only Close can end the
	// round the waiters subscribe to.
	p := mustOpen(t, cfg, EngineConfig{BatchWindow: time.Hour})
	newStubFleet(t, p, 2, nil)
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	const waiters = 8
	done := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		go func() { done <- p.WaitForCommit(tctx) }()
	}
	deadline := time.After(5 * time.Second)
	for p.sched.waiterCount() < waiters {
		select {
		case <-deadline:
			t.Fatalf("only %d/%d waiters subscribed", p.sched.waiterCount(), waiters)
		case <-time.After(time.Millisecond):
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < waiters; i++ {
		select {
		case err := <-done:
			if err != ErrProviderClosed {
				t.Fatalf("waiter %d returned %v, want ErrProviderClosed", i, err)
			}
		case <-deadline:
			t.Fatalf("waiter %d still blocked after Close", i)
		}
	}
	// Waits after Close fail immediately with the same terminal error.
	if err := p.WaitForCommit(tctx); err != ErrProviderClosed {
		t.Fatalf("post-Close WaitForCommit returned %v", err)
	}
	if err := p.RunEpoch(tctx); err != ErrProviderClosed {
		t.Fatalf("post-Close RunEpoch returned %v", err)
	}
}

// TestTransientClassification pins which failures the epoch fan-out
// retries: marked/connection errors yes, protocol and context errors no.
func TestTransientClassification(t *testing.T) {
	if !IsTransient(MarkTransient(context.Canceled)) {
		// Marking overrides even a context error buried underneath: the
		// transport declared the failure connection-level.
		t.Error("explicitly marked error not transient")
	}
	if IsTransient(nil) {
		t.Error("nil transient")
	}
	if IsTransient(context.Canceled) || IsTransient(context.DeadlineExceeded) {
		t.Error("context errors must not be retried")
	}
	if IsTransient(errProtocol) {
		t.Error("protocol rejection must not be retried")
	}
	if !IsTransient(io.ErrUnexpectedEOF) || !IsTransient(syscall.ECONNRESET) {
		t.Error("torn-connection I/O errors should be retried")
	}
}

var errProtocol = errors.New("hsm: audit rejected")

// TestWithRetryRecoversTransientFailure: an HSM whose exchange fails
// transiently a bounded number of times still contributes its signature.
func TestWithRetryRecoversTransientFailure(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{
		ExchangeRetries: 3,
		RetryBaseDelay:  time.Microsecond,
		RetryMaxDelay:   10 * time.Microsecond,
	})
	calls := 0
	err := p.withRetry(tctx, func() error {
		calls++
		if calls < 3 {
			return MarkTransient(errors.New("conn reset"))
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("withRetry: err=%v calls=%d", err, calls)
	}
	// Non-transient errors are never retried.
	calls = 0
	err = p.withRetry(tctx, func() error { calls++; return errProtocol })
	if err != errProtocol || calls != 1 {
		t.Fatalf("protocol error retried: err=%v calls=%d", err, calls)
	}
	// The retry budget is finite.
	calls = 0
	err = p.withRetry(tctx, func() error { calls++; return MarkTransient(errProtocol) })
	if !IsTransient(err) || calls != 4 {
		t.Fatalf("budget: err=%v calls=%d, want 4 tries", err, calls)
	}
}

// TestRunEpochCancelledCallerStillCommits: RunEpoch with a cancelled
// context abandons the *wait*, not the epoch — the epoch it fired still
// commits for the log's sake.
func TestRunEpochCancelledCallerStillCommits(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{BatchWindow: time.Hour})
	newStubFleet(t, p, 2, nil)
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.RunEpoch(cancelled); err != context.Canceled {
		t.Fatalf("RunEpoch with cancelled ctx returned %v", err)
	}
	// The fired epoch still runs to completion in the background.
	deadline := time.After(5 * time.Second)
	for {
		if logged(p, protocol.LogID("alice", 0)) {
			return
		}
		select {
		case <-deadline:
			t.Fatal("epoch abandoned because its caller cancelled")
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// waiterCount reports the current round's live subscriptions (0 when no
// round is gathering); exposed inside the package for leak tests.
func (s *epochScheduler) waiterCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		return 0
	}
	return len(s.cur.waiters)
}
