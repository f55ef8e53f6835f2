package provider

import (
	"errors"
	"testing"

	"safetypin/internal/storage"
)

// TestAttemptLimitEnforced pins the front-door budget: with AttemptLimit
// k, exactly k reservations are granted (with distinct indices) and the
// k+1-th fails with ErrAttemptLimit.
func TestAttemptLimitEnforced(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{AttemptLimit: 3})
	for want := 0; want < 3; want++ {
		n, err := p.ReserveAttempt(tctx, "alice")
		if err != nil || n != want {
			t.Fatalf("reservation %d: got (%d, %v)", want, n, err)
		}
	}
	if _, err := p.ReserveAttempt(tctx, "alice"); !errors.Is(err, ErrAttemptLimit) {
		t.Fatalf("k+1-th reservation: got %v, want ErrAttemptLimit", err)
	}
	// Other users are unaffected by alice's exhaustion.
	if n, err := p.ReserveAttempt(tctx, "bob"); err != nil || n != 0 {
		t.Fatalf("bob's first reservation: got (%d, %v)", n, err)
	}
	// Zero limit means unlimited (the provider alone cannot know k).
	q := mustOpen(t, logCfg(), EngineConfig{})
	for i := 0; i < 10; i++ {
		if _, err := q.ReserveAttempt(tctx, "alice"); err != nil {
			t.Fatalf("unlimited provider rejected reservation %d: %v", i, err)
		}
	}
}

// TestAttemptRejectSurvivesCrash pins the satellite fix: a rejected
// (over-limit) reservation is journaled and synced before it is served,
// so a power loss right after the client observes the rejection cannot
// resurrect the guess budget — even when the records that advanced the
// counter were themselves in the unsynced journal tail.
func TestAttemptRejectSurvivesCrash(t *testing.T) {
	mem := storage.NewMem()
	p, err := Open(logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1, AttemptLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Burn the budget through LogRecoveryAttempt — the path that journals
	// the counter advance WITHOUT syncing (the insertion only becomes
	// durable at the epoch barrier, which this test never reaches).
	for i := 0; i < 2; i++ {
		if err := p.LogRecoveryAttempt(tctx, "mallory", i, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.ReserveAttempt(tctx, "mallory"); !errors.Is(err, ErrAttemptLimit) {
		t.Fatalf("over-limit reservation: got %v, want ErrAttemptLimit", err)
	}
	// Power loss: only synced journal state survives.
	clone := mem.CrashClone()
	q, err := Open(logCfg(), EngineConfig{Storage: clone, SnapshotEvery: -1, AttemptLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := q.AttemptCount(tctx, "mallory"); n < 2 {
		t.Fatalf("crash resurrected the budget: counter %d, want >= 2", n)
	}
	if _, err := q.ReserveAttempt(tctx, "mallory"); !errors.Is(err, ErrAttemptLimit) {
		t.Fatalf("post-crash reservation: got %v, want ErrAttemptLimit", err)
	}
}

// TestAttemptRejectReplayIdempotent re-opens the same journal twice:
// replaying a rejection record a second time must not change state.
func TestAttemptRejectReplayIdempotent(t *testing.T) {
	mem := storage.NewMem()
	p, err := Open(logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1, AttemptLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReserveAttempt(tctx, "alice"); err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReserveAttempt(tctx, "alice"); !errors.Is(err, ErrAttemptLimit) {
		t.Fatalf("second reservation: got %v, want ErrAttemptLimit", err)
	}
	open := func() *Provider {
		q, err := Open(logCfg(), EngineConfig{Storage: mem.CrashClone(), SnapshotEvery: -1, AttemptLimit: 1})
		if err != nil {
			t.Fatal(err)
		}
		return q
	}
	a, b := open(), open()
	if da, db := a.StateDigest(), b.StateDigest(); da != db {
		t.Fatalf("replay not idempotent: digests %x vs %x", da, db)
	}
	if n, _ := a.AttemptCount(tctx, "alice"); n != 1 {
		t.Fatalf("replayed counter %d, want 1", n)
	}
}
