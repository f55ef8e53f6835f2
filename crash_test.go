package safetypin

// crash_test.go is the crash/restart fault-injection harness over the
// durable provider (internal/storage + internal/provider/durable.go).
// Every scenario follows the same shape: run a workload against a
// deployment journaling through a storage engine, "crash" the provider —
// abandon it without Close, exactly as kill -9 would — and reopen a
// provider over the surviving engine with Deployment.ReopenProvider.
// The invariants checked after every recovery:
//
//   - the audit log verifies from genesis (dlog.Replay);
//   - no committed epoch or escrowed reply is lost;
//   - attempt counters never decrease (a crash never un-burns a guess);
//   - uncommitted insertions are dropped cleanly, not half-applied;
//   - recovery is idempotent (recovering twice yields one state digest);
//   - the restarted provider serves a full backup→recover round trip.
//
// Crash flavors: process kill (everything appended survives — MemEngine
// outlives the provider), power loss (only the synced prefix survives —
// MemEngine.CrashClone), injected storage faults mid-workload
// (storage.FaultEngine), and on-disk torn/corrupt WAL tails
// (storage.TornTail/CorruptTail against a FileEngine directory).

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"testing"

	"safetypin/internal/dlog"
	"safetypin/internal/hsm"
	"safetypin/internal/provider"
	"safetypin/internal/storage"
)

// durableParams is testParams plus a storage engine and a guess budget
// large enough for the multi-recovery crash workloads.
func durableParams(n int, eng storage.Engine) Params {
	p := testParams(n)
	p.GuessLimit = 8
	p.Engine = provider.EngineConfig{Storage: eng, SnapshotEvery: -1}
	return p
}

// backupUser provisions a client and backs up a distinctive payload.
func backupUser(t *testing.T, d *Deployment, user, pin string) []byte {
	t.Helper()
	c, err := d.NewClient(user, pin)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("disk image of " + user)
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatalf("%s backup: %v", user, err)
	}
	return msg
}

// recoverFresh recovers user's backup through a brand-new client — the
// post-crash path, where the pre-crash device object is gone too.
func recoverFresh(t *testing.T, d *Deployment, user, pin string, want []byte) {
	t.Helper()
	c, err := d.NewClient(user, pin)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatalf("%s recover after restart: %v", user, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s recovered wrong data after restart", user)
	}
}

// verifyAuditLog replays the provider's committed log from genesis and
// checks it matches the provider's advertised digest.
func verifyAuditLog(t *testing.T, d *Deployment) {
	t.Helper()
	if err := dlog.Replay(d.Provider.LogEntries(), d.Provider.LogDigest()); err != nil {
		t.Fatalf("audit log does not verify after recovery: %v", err)
	}
}

// assertIdempotentRecovery opens a second provider over the same engine
// and checks both recoveries agree on the state digest — replaying the
// journal twice must be a no-op, not an accumulation.
func assertIdempotentRecovery(t *testing.T, d *Deployment, eng storage.Engine) {
	t.Helper()
	p2, err := provider.Open(d.logCfg, provider.EngineConfig{Storage: eng, SnapshotEvery: -1})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if p2.StateDigest() != d.Provider.StateDigest() {
		t.Fatal("recovering twice produced different state digests")
	}
}

// TestCrashRecoveryCommittedEpochSurvives kills the provider after a full
// committed epoch that one HSM missed and checks the restarted provider
// still holds it: the lagging HSM catches up on the resent commit, the
// log verifies, counters stand, an existing backup recovers through a
// fresh client, and a brand-new user gets a full round trip.
func TestCrashRecoveryCommittedEpochSurvives(t *testing.T) {
	mem := storage.NewMem()
	d := deploy(t, durableParams(8, mem))

	aliceMsg := backupUser(t, d, "alice", "111111")
	bobMsg := backupUser(t, d, "bob", "222222")
	recoverFresh(t, d, "bob", "222222", bobMsg) // commits an epoch

	digest := d.Provider.LogDigest()
	entries := len(d.Provider.LogEntries())
	bobAttempts, err := d.Provider.AttemptCount(tctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	if bobAttempts == 0 {
		t.Fatal("workload burned no attempt")
	}
	// One more epoch that HSM 0 misses: the crash cuts it off from the
	// commit fan-out.
	d.Provider.Register(commitDropper{d.HSMs[0]})
	if err := d.Provider.LogRecoveryAttempt(tctx, "dave", 0, []byte("c")); err != nil {
		t.Fatal(err)
	}
	if err := d.Provider.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	digest = d.Provider.LogDigest()
	entries = len(d.Provider.LogEntries())
	if got, _ := d.HSMs[0].LogDigest(); got == [32]byte(digest) {
		t.Fatal("HSM 0 took the commit")
	}

	// kill -9: abandon the provider, reopen over the same engine. The
	// journal keeps no residue witness; the reopen's resend proves the
	// last commit again, and HSM 0 catches up on it.
	if err := d.ReopenProvider(provider.EngineConfig{Storage: mem, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if got, _ := d.HSMs[0].LogDigest(); got != [32]byte(d.Provider.LogDigest()) {
		t.Fatal("the lagging HSM did not accept the resent commit")
	}

	verifyAuditLog(t, d)
	if d.Provider.LogDigest() != digest {
		t.Fatal("committed log digest changed across the crash")
	}
	if got := len(d.Provider.LogEntries()); got != entries {
		t.Fatalf("committed entries %d after restart, want %d", got, entries)
	}
	if after, _ := d.Provider.AttemptCount(tctx, "bob"); after < bobAttempts {
		t.Fatalf("attempt counter decreased across crash: %d -> %d", bobAttempts, after)
	}
	recoverFresh(t, d, "alice", "111111", aliceMsg)

	carolMsg := backupUser(t, d, "carol", "333333")
	recoverFresh(t, d, "carol", "333333", carolMsg)
	verifyAuditLog(t, d)
}

// commitDropper refuses every commit, like an HSM the provider's crash
// cut off from the commit fan-out.
type commitDropper struct{ *hsm.HSM }

func (commitDropper) LogHandleCommit(context.Context, *dlog.CommitMessage) error {
	return errors.New("commit lost in the crash")
}

// TestCrashDropsUncommittedInsertions reserves an attempt and inserts its
// log entry but crashes before any epoch: the restarted provider must
// drop the pending insertion (it was never audited, so it must not appear
// committed) while keeping the burned attempt, and recovering twice must
// agree on the resulting state.
func TestCrashDropsUncommittedInsertions(t *testing.T) {
	mem := storage.NewMem()
	d := deploy(t, durableParams(8, mem))

	aliceMsg := backupUser(t, d, "alice", "111111")
	bobMsg := backupUser(t, d, "bob", "222222")
	recoverFresh(t, d, "bob", "222222", bobMsg) // one committed epoch first
	committed := len(d.Provider.LogEntries())

	att, err := d.Provider.ReserveAttempt(tctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Provider.LogRecoveryAttempt(tctx, "alice", att, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	if d.Provider.PendingLogLen() == 0 {
		t.Fatal("insertion did not queue")
	}

	if err := d.ReopenProvider(provider.EngineConfig{Storage: mem, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen: %v", err)
	}

	if n := d.Provider.PendingLogLen(); n != 0 {
		t.Fatalf("%d pending insertions survived the crash, want 0", n)
	}
	if got := len(d.Provider.LogEntries()); got != committed {
		t.Fatalf("committed entries %d after restart, want %d", got, committed)
	}
	// The guess stays burned: the reservation was synced before the ack.
	if after, _ := d.Provider.AttemptCount(tctx, "alice"); after < att+1 {
		t.Fatalf("attempt counter %d after restart, want >= %d", after, att+1)
	}
	verifyAuditLog(t, d)
	assertIdempotentRecovery(t, d, mem)
	recoverFresh(t, d, "alice", "111111", aliceMsg)
}

// TestCrashEscrowAndResumeSurvive crashes the provider in the middle of a
// resumable recovery session (PR 3): the escrowed replies and the session
// token must carry across the restart, and resuming must finish the
// recovery without consuming a second guess.
func TestCrashEscrowAndResumeSurvive(t *testing.T) {
	mem := storage.NewMem()
	d := deploy(t, durableParams(8, mem))

	eve, err := d.NewClient("eve", "444444")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("eve's disk image")
	if err := eve.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}

	s, err := eve.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RequestShare(tctx, 0); err != nil {
		t.Fatalf("first share: %v", err)
	}
	attempts, _ := d.Provider.AttemptCount(tctx, "eve")

	// Crash between shares: the device object and the provider both die.
	if err := d.ReopenProvider(provider.EngineConfig{Storage: mem, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen: %v", err)
	}

	c2, err := d.NewClient("eve", "444444")
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.ResumeRecovery(tctx, token)
	if err != nil {
		t.Fatalf("resume after crash: %v", err)
	}
	if s2.Attempt() != s.Attempt() {
		t.Fatalf("resume reserved a new attempt: %d, want %d", s2.Attempt(), s.Attempt())
	}
	if s2.SharesHeld() < 1 {
		t.Fatal("escrowed share did not survive the crash")
	}
	s2.RequestAllShares(tctx)
	got, err := s2.Finish(tctx)
	if err != nil {
		t.Fatalf("finish after crash: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("resumed recovery returned wrong data")
	}
	if after, _ := d.Provider.AttemptCount(tctx, "eve"); after != attempts {
		t.Fatalf("resume changed the attempt counter: %d -> %d", attempts, after)
	}
	verifyAuditLog(t, d)
}

// TestPowerLossCrashClone models power loss rather than a process kill:
// only the synced prefix of the journal survives. State synced before the
// ack (the reserved attempt, ciphertexts, committed epochs) must be
// there; the write-only pending insertion must be gone.
func TestPowerLossCrashClone(t *testing.T) {
	mem := storage.NewMem()
	d := deploy(t, durableParams(8, mem))

	aliceMsg := backupUser(t, d, "alice", "111111")
	bobMsg := backupUser(t, d, "bob", "222222")
	recoverFresh(t, d, "bob", "222222", bobMsg)
	digest := d.Provider.LogDigest()

	att, err := d.Provider.ReserveAttempt(tctx, "alice") // synced before ack
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Provider.LogRecoveryAttempt(tctx, "alice", att, make([]byte, 32)); err != nil {
		t.Fatal(err) // write-only: becomes durable at the epoch barrier
	}

	clone := mem.CrashClone()
	if err := d.ReopenProvider(provider.EngineConfig{Storage: clone, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen from power-loss clone: %v", err)
	}

	if d.Provider.LogDigest() != digest {
		t.Fatal("committed digest lost to power loss")
	}
	if n := d.Provider.PendingLogLen(); n != 0 {
		t.Fatalf("%d unsynced pending insertions survived power loss", n)
	}
	if after, _ := d.Provider.AttemptCount(tctx, "alice"); after < att+1 {
		t.Fatalf("acked attempt reservation lost: counter %d, want >= %d", after, att+1)
	}
	verifyAuditLog(t, d)
	recoverFresh(t, d, "alice", "111111", aliceMsg)
}

// TestFaultInjectionSweep arms a storage fault at every interesting point
// in a backup+recover workload — the k-th append or the k-th sync after
// provisioning — lets the workload die there, and checks the recovery
// invariants hold at each crash point.
func TestFaultInjectionSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("fault-injection sweep skipped in -short")
	}
	type point struct {
		kind string
		n    int
	}
	var points []point
	for k := 1; k <= 10; k++ {
		points = append(points, point{"append", k})
	}
	for k := 1; k <= 4; k++ {
		points = append(points, point{"sync", k})
	}
	for _, pt := range points {
		pt := pt
		t.Run(fmt.Sprintf("%s-%d", pt.kind, pt.n), func(t *testing.T) {
			inner := storage.NewMem()
			fault := storage.NewFault(inner)
			d := deploy(t, durableParams(4, fault))

			var aliceMsg []byte
			if c, err := d.NewClient("alice", "111111"); err == nil {
				aliceMsg = []byte("disk image of alice")
				if err := c.Backup(tctx, aliceMsg); err != nil {
					t.Fatalf("pre-fault backup: %v", err)
				}
			}

			// Arm after provisioning and the first backup, so the fault
			// lands inside the recovery workload proper.
			switch pt.kind {
			case "append":
				fault.FailAppendAt(pt.n)
			case "sync":
				fault.FailSyncAt(pt.n)
			}

			// The workload runs to whatever point the fault allows; errors
			// are the expected outcome, not failures.
			bobRecovered := false
			if c, err := d.NewClient("bob", "222222"); err == nil {
				if err := c.Backup(tctx, []byte("disk image of bob")); err == nil {
					if got, err := c.Recover(tctx, ""); err == nil {
						bobRecovered = bytes.Equal(got, []byte("disk image of bob"))
					}
				}
			}

			// Restart from the records that made it past the fault.
			if err := d.ReopenProvider(provider.EngineConfig{Storage: inner, SnapshotEvery: -1}); err != nil {
				t.Fatalf("reopen after injected fault: %v", err)
			}

			verifyAuditLog(t, d)
			if n := d.Provider.PendingLogLen(); n != 0 {
				t.Fatalf("%d pending insertions survived the crash", n)
			}
			if bobRecovered {
				// The recovery was acked, so its guess must stay burned.
				if after, _ := d.Provider.AttemptCount(tctx, "bob"); after < 1 {
					t.Fatal("acked recovery attempt lost in the crash")
				}
			}
			assertIdempotentRecovery(t, d, inner)

			// The restarted provider must be fully serviceable.
			if aliceMsg != nil {
				recoverFresh(t, d, "alice", "111111", aliceMsg)
			}
			daveMsg := backupUser(t, d, "dave", "555555")
			recoverFresh(t, d, "dave", "555555", daveMsg)
			verifyAuditLog(t, d)
		})
	}
}

// TestFileEngineCrashAndRestart runs the kill/restart cycle against the
// on-disk WAL+snapshot engine, including torn and corrupted WAL tails
// past the durable offset, and finally checks that a graceful Close
// leaves nothing for the next open to replay.
func TestFileEngineCrashAndRestart(t *testing.T) {
	dir := t.TempDir()
	eng, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	d := deploy(t, durableParams(8, eng))

	aliceMsg := backupUser(t, d, "alice", "111111")
	bobMsg := backupUser(t, d, "bob", "222222")
	recoverFresh(t, d, "bob", "222222", bobMsg)
	digest := d.Provider.LogDigest()

	// Crash 1: plain kill. Reopen the directory with a fresh engine.
	eng2, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen dir after kill: %v", err)
	}
	if err := d.ReopenProvider(provider.EngineConfig{Storage: eng2, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen provider: %v", err)
	}
	if d.Provider.LogDigest() != digest {
		t.Fatal("committed digest lost across file-engine restart")
	}
	verifyAuditLog(t, d)
	recoverFresh(t, d, "alice", "111111", aliceMsg)
	digest = d.Provider.LogDigest()

	// Queue an uncommitted insertion, then crash with a torn WAL tail:
	// power loss eats part of what was written after the last fsync.
	att, err := d.Provider.ReserveAttempt(tctx, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Provider.LogRecoveryAttempt(tctx, "carol", att, make([]byte, 32)); err != nil {
		t.Fatal(err)
	}
	durable := eng2.DurableOffset()
	info, err := os.Stat(eng2.WALPath())
	if err != nil {
		t.Fatal(err)
	}
	if tail := info.Size() - durable; tail > 0 {
		// Corrupt the middle of the unsynced tail and tear the last byte:
		// the CRC must reject the garbage, the scanner must truncate.
		if err := storage.CorruptTail(eng2.WALPath(), tail/2+1); err != nil {
			t.Fatal(err)
		}
		if err := storage.TornTail(eng2.WALPath(), 1); err != nil {
			t.Fatal(err)
		}
	}
	eng3, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatalf("reopen dir after torn tail: %v", err)
	}
	if err := d.ReopenProvider(provider.EngineConfig{Storage: eng3, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen provider after torn tail: %v", err)
	}
	if d.Provider.LogDigest() != digest {
		t.Fatal("torn tail damaged committed state")
	}
	if n := d.Provider.PendingLogLen(); n != 0 {
		t.Fatalf("%d pending insertions survived the torn tail", n)
	}
	if after, _ := d.Provider.AttemptCount(tctx, "carol"); after < att+1 {
		t.Fatalf("synced attempt reservation lost: %d, want >= %d", after, att+1)
	}
	verifyAuditLog(t, d)
	carolMsg := backupUser(t, d, "carol", "333333")
	recoverFresh(t, d, "carol", "333333", carolMsg)

	// Graceful stop: Close snapshots and syncs, so the next open replays
	// zero WAL records.
	if err := d.Provider.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	eng4, err := storage.OpenFile(dir)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := eng4.Replay(func(seq uint64, rec storage.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.WALRecords != 0 {
		t.Fatalf("graceful stop left %d WAL records to replay, want 0", stats.WALRecords)
	}
	if stats.SnapshotRecords == 0 {
		t.Fatal("graceful stop wrote no snapshot")
	}
	if err := d.ReopenProvider(provider.EngineConfig{Storage: eng4, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen after graceful stop: %v", err)
	}
	verifyAuditLog(t, d)
	frankMsg := backupUser(t, d, "frank", "666666")
	recoverFresh(t, d, "frank", "666666", frankMsg)
}

// TestSnapshotCompactionCadence checks SnapshotEvery: with a cadence of
// one, every epoch commit compacts the journal, so a kill right after a
// workload still replays from a snapshot with only a short WAL suffix.
func TestSnapshotCompactionCadence(t *testing.T) {
	mem := storage.NewMem()
	p := durableParams(8, mem)
	p.Engine.SnapshotEvery = 1
	d := deploy(t, p)

	for i := 0; i < 3; i++ {
		user := fmt.Sprintf("user%d", i)
		msg := backupUser(t, d, user, "123456")
		recoverFresh(t, d, user, "123456", msg)
	}
	digest := d.Provider.LogDigest()

	stats, err := mem.Replay(func(seq uint64, rec storage.Record) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if stats.SnapshotRecords == 0 {
		t.Fatal("SnapshotEvery=1 wrote no snapshot after three epochs")
	}

	if err := d.ReopenProvider(provider.EngineConfig{Storage: mem, SnapshotEvery: 1}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if d.Provider.LogDigest() != digest {
		t.Fatal("snapshot-compacted state lost across restart")
	}
	verifyAuditLog(t, d)
	msg := backupUser(t, d, "late", "123456")
	recoverFresh(t, d, "late", "123456", msg)
}
