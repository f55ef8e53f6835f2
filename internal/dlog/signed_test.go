package dlog

// signed_test.go pins the auditor's hash-once entry: the header an HSM
// signs in HandleAudit is hashed onto G1 once, HandleCommit reuses
// that hash only for the same header, the full aggregate check still runs,
// and the entry belongs to one auditor and dies with the digest it was
// made against.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"safetypin/internal/aggsig"
)

// counter counts one auditor's header hashes.
type counter struct{ hashes atomic.Int64 }

// newCountingFixture builds a BLS fleet in which every auditor hashes
// through a counter of its own.
func newCountingFixture(t *testing.T, cfg Config, fleet int) (*fixture, []*counter) {
	t.Helper()
	f := newFixture(t, cfg, fleet)
	counters := make([]*counter, fleet)
	for i, a := range f.auditors {
		c := &counter{}
		counters[i] = c
		a.hash = func(msg []byte) aggsig.Message {
			c.hashes.Add(1)
			return aggsig.HashMessage(msg)
		}
	}
	return f, counters
}

// auditAll stages an epoch over n fresh entries and returns every listed
// auditor's signature on it.
func (f *fixture) auditAll(t *testing.T, tag string, n int, ids []int) (EpochHeader, [][]byte) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("%s-%d", tag, i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var sigs [][]byte
	for _, id := range ids {
		a := f.auditors[id]
		chunks, err := a.ChooseChunks(hdr)
		if err != nil {
			t.Fatal(err)
		}
		pkg, err := f.provider.AuditPackageFor(chunks)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := a.HandleAudit(pkg)
		if err != nil {
			t.Fatal(err)
		}
		sigs = append(sigs, sig)
	}
	return hdr, sigs
}

func (a *Auditor) signedEntry() *signedHeader {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.signed
}

// TestAuditedEpochHashesOncePerAuditor: over two epochs, each signer
// hashes the header once (in HandleAudit) and the non-signer once (in
// HandleCommit), each through its own counter — no auditor's hash serves
// another's commit.
func TestAuditedEpochHashesOncePerAuditor(t *testing.T) {
	cfg := testCfg()
	cfg.MinSignerFrac = 0.5
	f, counters := newCountingFixture(t, cfg, 3)
	signers := []int{0, 1}
	for epoch := 1; epoch <= 2; epoch++ {
		_, sigs := f.auditAll(t, fmt.Sprintf("e%d", epoch), 4, signers)
		for _, id := range signers {
			if f.auditors[id].signedEntry() == nil {
				t.Fatalf("epoch %d: signer %d kept no hashed header", epoch, id)
			}
		}
		if f.auditors[2].signedEntry() != nil {
			t.Fatalf("epoch %d: the non-signer holds a hashed header", epoch)
		}
		cm, err := f.provider.Commit(sigs, signers)
		if err != nil {
			t.Fatal(err)
		}
		for id, a := range f.auditors {
			if err := a.HandleCommit(cm); err != nil {
				t.Fatalf("epoch %d auditor %d: %v", epoch, id, err)
			}
			if a.Digest() != f.provider.Digest() {
				t.Fatalf("epoch %d: auditor %d did not advance", epoch, id)
			}
			if a.signedEntry() != nil {
				t.Fatalf("epoch %d: auditor %d kept its hashed header past the commit", epoch, id)
			}
		}
		for id, c := range counters {
			if got := c.hashes.Load(); got != int64(epoch) {
				t.Fatalf("after epoch %d auditor %d hashed %d times, want %d", epoch, id, got, epoch)
			}
		}
	}
}

// TestSignedHeaderDoesNotVouchForOtherCommits: with the entry present, a
// commit for a different header (hashed afresh) and a forged aggregate for
// the signed header (hash reused) are both refused by the full check, the
// digest stays put, and the honest commit still goes through.
func TestSignedHeaderDoesNotVouchForOtherCommits(t *testing.T) {
	cfg := testCfg()
	cfg.MinSignerFrac = 0.5
	f, counters := newCountingFixture(t, cfg, 3)
	hdr, sigs := f.auditAll(t, "u", 4, []int{0, 1, 2})
	a, c := f.auditors[0], counters[0]
	before := a.Digest()

	other := hdr
	other.NewDigest[0] ^= 1
	forged, err := aggsig.Aggregate(sigs[:2])
	if err != nil {
		t.Fatal(err)
	}
	full, err := aggsig.Aggregate(sigs)
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []struct {
		name   string
		cm     *CommitMessage
		hashes int64 // hashes the commit may make
	}{
		{"different header", &CommitMessage{Header: other, AggSig: full, Signers: []int{0, 1, 2}}, 1},
		{"forged aggregate", &CommitMessage{Header: hdr, AggSig: forged, Signers: []int{0, 1, 2}}, 0},
	} {
		n := c.hashes.Load()
		if err := a.HandleCommit(bad.cm); err == nil {
			t.Fatalf("%s accepted", bad.name)
		}
		if got := c.hashes.Load() - n; got != bad.hashes {
			t.Fatalf("%s: hashed %d times, want %d", bad.name, got, bad.hashes)
		}
		if a.Digest() != before || a.signedEntry() == nil {
			t.Fatalf("%s: a refused commit moved the digest or dropped the entry", bad.name)
		}
	}
	cm, err := f.provider.Commit(sigs, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	n := c.hashes.Load()
	if err := a.HandleCommit(cm); err != nil {
		t.Fatal(err)
	}
	if c.hashes.Load() != n {
		t.Fatal("the honest commit for the signed header hashed it again")
	}
}

// TestSignedHeaderClearedWithDigest: GarbageCollect and SyncDigestForTest
// drop the entry along with the digest it was made against (the commit
// case is in TestAuditedEpochHashesOncePerAuditor).
func TestSignedHeaderClearedWithDigest(t *testing.T) {
	f, _ := newCountingFixture(t, testCfg(), 2)
	f.auditAll(t, "u", 2, []int{0, 1})
	a, b := f.auditors[0], f.auditors[1]
	if a.signedEntry() == nil || b.signedEntry() == nil {
		t.Fatal("audit left no hashed header")
	}
	if err := a.GarbageCollect(); err != nil {
		t.Fatal(err)
	}
	if a.signedEntry() != nil {
		t.Fatal("hashed header survived garbage collection")
	}
	if err := b.SyncDigestForTest(b.Digest()); err != nil {
		t.Fatal(err)
	}
	if b.signedEntry() != nil {
		t.Fatal("hashed header survived SyncDigestForTest")
	}
}

// TestConcurrentAuditAndCommitOneAuditor races re-audits and commits of
// one epoch on one auditor (run it with -race): exactly one commit lands,
// every audit either signs the same bytes or is refused because the digest
// moved, and the auditor ends on the provider's digest with no hashed
// header left.
func TestConcurrentAuditAndCommitOneAuditor(t *testing.T) {
	cfg := testCfg()
	cfg.Deterministic = true // a re-audit of the header is as valid as the first
	cfg.MinSignerFrac = 0.5
	f, _ := newCountingFixture(t, cfg, 2)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*AuditPackage, 2)
	sigs := make([][]byte, 2)
	for id, a := range f.auditors {
		chunks, err := a.ChooseChunks(hdr)
		if err != nil {
			t.Fatal(err)
		}
		if pkgs[id], err = f.provider.AuditPackageFor(chunks); err != nil {
			t.Fatal(err)
		}
		if sigs[id], err = a.HandleAudit(pkgs[id]); err != nil {
			t.Fatal(err)
		}
	}
	cm, err := f.provider.Commit(sigs, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}

	a := f.auditors[0]
	var committed atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			sig, err := a.HandleAudit(pkgs[0])
			if err == nil && string(sig) != string(sigs[0]) {
				t.Error("a re-audit signed different bytes")
			}
		}()
		go func() {
			defer wg.Done()
			if a.HandleCommit(cm) == nil {
				committed.Add(1)
			}
		}()
	}
	wg.Wait()
	if committed.Load() != 1 {
		t.Fatalf("%d commits landed, want exactly 1", committed.Load())
	}
	if a.Digest() != f.provider.Digest() || a.signedEntry() != nil {
		t.Fatal("auditor did not end on the committed digest with no hashed header")
	}
}
