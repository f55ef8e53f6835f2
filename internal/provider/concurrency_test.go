package provider

// Concurrency tests for the sharded provider and the epoch scheduler. All
// of these are meant to run under -race: they exercise the exact
// interleavings the engine exists for — many recoveries sharing one epoch,
// relays racing epochs, and slow HSMs stalling the audit pool.

import (
	"context"
	"crypto/rand"
	"fmt"
	"sync"
	"testing"
	"time"

	"safetypin/internal/aggsig"
	"safetypin/internal/dlog"
	"safetypin/internal/protocol"
)

// buildStubs provisions n auditing stub HSMs and installs their roster in
// p as its signing roster, without registering them.
func buildStubs(t *testing.T, p *Provider, cfg dlog.Config, n int) []*stubHSM {
	t.Helper()
	roster := make([]aggsig.PublicKey, n)
	signers := make([]aggsig.Signer, n)
	for i := 0; i < n; i++ {
		s, err := aggsig.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		roster[i] = s.PublicKey()
	}
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(roster)
	p.SetSigningRoster(cache)
	var out []*stubHSM
	for i := 0; i < n; i++ {
		a, err := dlog.NewAuditor(cfg, i, cache, signers[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, &stubHSM{id: i, signer: signers[i], auditor: a})
	}
	return out
}

func TestReserveAttemptAtomic(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	const workers = 32
	got := make([]int, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = p.ReserveAttempt(tctx, "alice")
		}(i)
	}
	wg.Wait()
	seen := make(map[int]bool)
	for _, a := range got {
		if a < 0 || a >= workers {
			t.Fatalf("attempt %d out of range", a)
		}
		if seen[a] {
			t.Fatalf("attempt %d handed out twice", a)
		}
		seen[a] = true
	}
	if n, _ := p.AttemptCount(tctx, "alice"); n != workers {
		t.Fatalf("AttemptCount = %d, want %d", n, workers)
	}
}

// countingHSM counts epoch commits so batching is observable.
type countingHSM struct {
	*stubHSM
	mu      sync.Mutex
	commits int
}

func (c *countingHSM) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	c.mu.Lock()
	c.commits++
	c.mu.Unlock()
	return c.stubHSM.LogHandleCommit(ctx, cm)
}

func (c *countingHSM) Commits() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.commits
}

func TestConcurrentWaitersShareOneEpoch(t *testing.T) {
	// Many concurrent recoveries logging attempts must batch into far
	// fewer epochs than insertions — ideally one per gathering window.
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{BatchWindow: 100 * time.Millisecond})
	stubs := buildStubs(t, p, cfg, 3)
	counters := make([]*countingHSM, len(stubs))
	for i, s := range stubs {
		counters[i] = &countingHSM{stubHSM: s}
		p.Register(counters[i])
	}
	const users = 16
	var wg sync.WaitGroup
	errs := make([]error, users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			user := fmt.Sprintf("user-%d", i)
			a, _ := p.ReserveAttempt(tctx, user)
			if err := p.LogRecoveryAttempt(tctx, user, a, []byte{byte(i)}); err != nil {
				errs[i] = err
				return
			}
			errs[i] = p.WaitForCommit(tctx)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	for i := 0; i < users; i++ {
		if !logged(p, protocol.LogID(fmt.Sprintf("user-%d", i), 0)) {
			t.Fatalf("user-%d insertion missing from committed log", i)
		}
	}
	// All 16 insertions landed, but through a handful of epochs at most
	// (one per 100ms window; allow slack for scheduler skew on slow CI).
	if c := counters[0].Commits(); c > 4 {
		t.Fatalf("%d insertions took %d epochs; batching is not happening", users, c)
	}
}

func TestConcurrentRunEpochAndRelayRecover(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{})
	for _, s := range buildStubs(t, p, cfg, 4) {
		p.Register(s)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Relay traffic hammering the fleet...
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req := &protocol.RecoveryRequest{
					User:    fmt.Sprintf("relay-user-%d", w),
					Attempt: i,
					Cluster: []int{w},
				}
				if _, err := p.RelayRecover(tctx, req); err != nil {
					t.Errorf("relay: %v", err)
					return
				}
			}
		}(w)
	}
	// ...while epochs run concurrently.
	for e := 0; e < 8; e++ {
		user := fmt.Sprintf("epoch-user-%d", e)
		if err := p.LogRecoveryAttempt(tctx, user, 0, []byte{byte(e)}); err != nil {
			t.Fatal(err)
		}
		if err := p.RunEpoch(tctx); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

func TestEscrowKeyedByAttemptAndBounded(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	for _, s := range buildStubs(t, p, logCfg(), 2) {
		p.Register(s)
	}
	relay := func(attempt, pos int) {
		t.Helper()
		req := &protocol.RecoveryRequest{
			User:     "alice",
			Attempt:  attempt,
			SharePos: pos,
			Cluster:  []int{pos % 2, (pos + 1) % 2},
		}
		if _, err := p.RelayRecover(tctx, req); err != nil {
			t.Fatal(err)
		}
	}
	// A crash-looping client retries attempt 0 forever: the escrow must
	// not grow past one reply per share position.
	for retry := 0; retry < 10; retry++ {
		relay(0, 0)
		relay(0, 1)
	}
	if replies, _ := p.FetchEscrowedReplies(tctx, "alice"); len(replies) != 2 {
		t.Fatalf("escrow holds %d replies after retries, want 2", len(replies))
	}
	// A newer attempt evicts the old one...
	relay(3, 0)
	if got := p.EscrowedAttempt("alice"); got != 3 {
		t.Fatalf("escrowed attempt %d, want 3", got)
	}
	if replies, _ := p.FetchEscrowedReplies(tctx, "alice"); len(replies) != 1 {
		t.Fatalf("escrow holds %d replies after new attempt, want 1", len(replies))
	}
	// ...and a stale attempt's reply is served but not stored.
	relay(1, 1)
	if got := p.EscrowedAttempt("alice"); got != 3 {
		t.Fatalf("stale attempt overwrote escrow (attempt %d)", got)
	}
	if replies, _ := p.FetchEscrowedReplies(tctx, "alice"); len(replies) != 1 {
		t.Fatalf("stale reply escrowed (%d replies)", len(replies))
	}
}

// laggardHSM delays (or hangs until release) its audit participation.
type laggardHSM struct {
	*stubHSM
	delay   time.Duration
	release chan struct{} // non-nil: block until closed instead of sleeping
}

func (l *laggardHSM) LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error) {
	if l.release != nil {
		<-l.release
	} else {
		time.Sleep(l.delay)
	}
	return l.stubHSM.LogChooseChunks(ctx, hdr)
}

func TestSlowHSMDelaysButDoesNotWedgeEpoch(t *testing.T) {
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{
		BatchWindow:  time.Millisecond,
		AuditTimeout: 100 * time.Millisecond,
	})
	stubs := buildStubs(t, p, cfg, 4)
	hung := make(chan struct{})
	defer close(hung)
	for i, s := range stubs {
		switch i {
		case 0:
			// Hung forever (released only at test teardown).
			p.Register(&laggardHSM{stubHSM: s, release: hung})
		case 1:
			// Slow but within the timeout: delays, then participates.
			p.Register(&laggardHSM{stubHSM: s, delay: 20 * time.Millisecond})
		default:
			p.Register(s)
		}
	}
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatalf("epoch failed despite quorum: %v", err)
	}
	elapsed := time.Since(start)
	if p.PendingLogLen() != 0 {
		t.Fatal("epoch did not commit")
	}
	if !logged(p, protocol.LogID("alice", 0)) {
		t.Fatal("entry missing after commit")
	}
	// The hung HSM cost at most ~AuditTimeout, not forever.
	if elapsed > 2*time.Second {
		t.Fatalf("epoch took %v; hung HSM wedged the pool", elapsed)
	}
	// A second epoch still works with the HSM still hung.
	if err := p.LogRecoveryAttempt(tctx, "bob", 0, []byte("h2")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatalf("second epoch failed: %v", err)
	}
}

// TestWaitForCommitAfterEpochAlreadyCommitted pins the "nothing pending is
// success" semantics of the scheduler.
func TestWaitForCommitAfterEpochAlreadyCommitted(t *testing.T) {
	// A waiter whose insertion was committed by an earlier forced epoch
	// must return success even though nothing is pending anymore.
	cfg := logCfg()
	p := mustOpen(t, cfg, EngineConfig{})
	for _, s := range buildStubs(t, p, cfg, 2) {
		p.Register(s)
	}
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	if err := p.WaitForCommit(tctx); err != nil {
		t.Fatalf("WaitForCommit with nothing pending: %v", err)
	}
}
