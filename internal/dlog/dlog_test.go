package dlog

import (
	"crypto/rand"
	"fmt"
	"sort"
	"strings"
	"testing"

	"safetypin/internal/aggsig"
	"safetypin/internal/logtree"
	"safetypin/internal/meter"
)

// fixture builds a provider plus fleet of auditors sharing a roster.
type fixture struct {
	cfg      Config
	provider *Provider
	auditors []*Auditor
	roster   *aggsig.RosterCache
	keys     []aggsig.PublicKey // the roster's keys, for test oracles
}

func newFixture(t testing.TB, cfg Config, fleet int) *fixture {
	t.Helper()
	cfg = cfg.withDefaults()
	signers := make([]aggsig.Signer, fleet)
	roster := make([]aggsig.PublicKey, fleet)
	for i := 0; i < fleet; i++ {
		s, err := aggsig.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		roster[i] = s.PublicKey()
	}
	// One roster cache for the whole fleet, as an in-process deployment
	// shares it.
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(roster)
	f := &fixture{cfg: cfg, provider: NewProvider(cfg), roster: cache, keys: roster}
	for i := 0; i < fleet; i++ {
		a, err := NewAuditor(cfg, i, cache, signers[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		f.auditors = append(f.auditors, a)
	}
	return f
}

// runEpoch drives one full epoch through every live auditor.
func (f *fixture) runEpoch(t testing.TB, live []int) error {
	t.Helper()
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		return err
	}
	return f.finishEpoch(hdr, live)
}

// finishEpoch audits, commits and delivers the staged epoch hdr.
func (f *fixture) finishEpoch(hdr EpochHeader, live []int) error {
	var sigs [][]byte
	var signers []int
	for _, id := range live {
		a := f.auditors[id]
		chunks, err := a.ChooseChunks(hdr)
		if err != nil {
			return err
		}
		pkg, err := f.provider.AuditPackageFor(chunks)
		if err != nil {
			return err
		}
		sig, err := a.HandleAudit(pkg)
		if err != nil {
			return err
		}
		sigs = append(sigs, sig)
		signers = append(signers, id)
	}
	cm, err := f.provider.Commit(sigs, signers)
	if err != nil {
		return err
	}
	for _, id := range live {
		if err := f.auditors[id].HandleCommit(cm); err != nil {
			return err
		}
	}
	return nil
}

func testCfg() Config {
	return Config{
		NumChunks:     4,
		AuditsPerHSM:  4, // small fleet: audit everything for certainty
		MinSignerFrac: 0.5,
	}
}

func allLive(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestEpochHappyPath(t *testing.T) {
	f := newFixture(t, testCfg(), 4)
	for i := 0; i < 10; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("user-%d", i)), []byte("h")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.runEpoch(t, allLive(4)); err != nil {
		t.Fatal(err)
	}
	for _, a := range f.auditors {
		if a.Digest() != f.provider.Digest() {
			t.Fatal("auditor digest diverged from provider")
		}
	}
}

func TestInclusionAfterEpoch(t *testing.T) {
	f := newFixture(t, testCfg(), 4)
	if err := f.provider.Append([]byte("alice"), []byte("commitment")); err != nil {
		t.Fatal(err)
	}
	if err := f.runEpoch(t, allLive(4)); err != nil {
		t.Fatal(err)
	}
	trace, err := f.provider.ProveInclusion([]byte("alice"), []byte("commitment"))
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range f.auditors {
		if !a.VerifyInclusion([]byte("alice"), []byte("commitment"), trace) {
			t.Fatal("HSM rejected valid inclusion proof")
		}
		if a.VerifyInclusion([]byte("alice"), []byte("forged"), trace) {
			t.Fatal("HSM accepted forged value")
		}
	}
}

func TestMultipleEpochs(t *testing.T) {
	f := newFixture(t, testCfg(), 4)
	for e := 0; e < 5; e++ {
		for i := 0; i < 6; i++ {
			if err := f.provider.Append([]byte(fmt.Sprintf("e%d-u%d", e, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.runEpoch(t, allLive(4)); err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
	}
	// everything from every epoch provable
	trace, err := f.provider.ProveInclusion([]byte("e2-u3"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if !f.auditors[0].VerifyInclusion([]byte("e2-u3"), []byte("v"), trace) {
		t.Fatal("old-epoch entry not provable")
	}
}

func TestDuplicateAppendRejected(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if err := f.provider.Append([]byte("u"), []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Append([]byte("u"), []byte("v2")); err == nil {
		t.Fatal("duplicate pending append accepted")
	}
	if err := f.runEpoch(t, allLive(2)); err != nil {
		t.Fatal(err)
	}
	if err := f.provider.Append([]byte("u"), []byte("v2")); err == nil {
		t.Fatal("duplicate committed append accepted")
	}
}

func TestMaliciousProviderCannotMutate(t *testing.T) {
	// A provider that swaps in a different tree (mutating an entry) cannot
	// produce a passing audit: the extension chain from the old digest
	// cannot exist, so staged headers either fail to build or fail audits.
	f := newFixture(t, testCfg(), 4)
	if err := f.provider.Append([]byte("victim"), []byte("honest-value")); err != nil {
		t.Fatal(err)
	}
	if err := f.runEpoch(t, allLive(4)); err != nil {
		t.Fatal(err)
	}
	// The attack: provider rebuilds its log with a mutated value and tries
	// to push an epoch from that state.
	evil := NewProvider(f.cfg)
	if err := evil.Append([]byte("victim"), []byte("evil-value")); err != nil {
		t.Fatal(err)
	}
	if err := evil.Append([]byte("new-user"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := evil.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	a := f.auditors[0]
	chunks, err := a.ChooseChunks(hdr)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := evil.AuditPackageFor(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleAudit(pkg); err == nil {
		t.Fatal("auditor signed an epoch rooted at a forged digest")
	}
}

func TestForgedCommitRejected(t *testing.T) {
	f := newFixture(t, testCfg(), 4)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	// Provider skips auditing and fabricates a commit with garbage sig.
	cm := &CommitMessage{Header: hdr, AggSig: make([]byte, 64), Signers: []int{0, 1}}
	before := f.auditors[0].Digest()
	for try := 0; try < 2; try++ {
		if err := f.auditors[0].HandleCommit(cm); err == nil {
			t.Fatal("forged commit accepted")
		}
		if f.auditors[0].Digest() != before {
			t.Fatal("rejected commit moved the digest")
		}
	}
}

func TestQuorumEnforced(t *testing.T) {
	cfg := testCfg()
	cfg.MinSignerFrac = 0.75
	f := newFixture(t, cfg, 4)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	// Only one auditor signs — below the 3-of-4 quorum.
	a := f.auditors[0]
	chunks, _ := a.ChooseChunks(hdr)
	pkg, err := f.provider.AuditPackageFor(chunks)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := a.HandleAudit(pkg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := f.provider.Commit([][]byte{sig}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.auditors[1].HandleCommit(cm); err == nil {
		t.Fatal("commit below quorum accepted")
	}
}

func TestFailStopHSMsDoNotBlockProgress(t *testing.T) {
	// With MinSignerFrac = 0.5, the epoch commits with half the fleet.
	f := newFixture(t, testCfg(), 4)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.runEpoch(t, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	// The failed HSMs (2, 3) can still catch up by processing the commit?
	// They refused nothing; their digest is just stale. A fresh epoch with
	// all four requires them to resync — here we just assert the live ones
	// advanced.
	if f.auditors[0].Digest() == logtree.EmptyDigest() {
		t.Fatal("live auditor did not advance")
	}
	if f.auditors[2].Digest() != logtree.EmptyDigest() {
		t.Fatal("dead auditor advanced")
	}
}

func TestDeterministicAuditTakeover(t *testing.T) {
	// B.3: chunk duty is a public function of (root, hsmID), so anyone can
	// compute which chunks a failed HSM should have audited.
	cfg := testCfg()
	cfg.Deterministic = true
	cfg.NumChunks = 8
	cfg.AuditsPerHSM = 3
	f := newFixture(t, cfg, 4)
	for i := 0; i < 16; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("u%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	// Auditor 1's duty is recomputable by anyone:
	duty, err := DeterministicChunks(hdr.Root, 1, hdr.NumChunks, 3)
	if err != nil {
		t.Fatal(err)
	}
	chosen, err := f.auditors[1].ChooseChunks(hdr)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(duty) != fmt.Sprint(chosen) {
		t.Fatalf("deterministic duty mismatch: %v vs %v", duty, chosen)
	}
	// And the package for that duty passes audit.
	pkg, err := f.provider.AuditPackageFor(chosen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.auditors[1].HandleAudit(pkg); err != nil {
		t.Fatal(err)
	}
}

func TestAuditRejectsWrongChunkSet(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	a := f.auditors[0]
	if _, err := a.ChooseChunks(hdr); err != nil {
		t.Fatal(err)
	}
	// Provider sends evidence for fewer chunks than chosen.
	pkg, err := f.provider.AuditPackageFor([]int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleAudit(pkg); err == nil {
		t.Fatal("short audit package accepted")
	}
}

func TestAuditWithoutChoiceRejected(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	_ = hdr
	pkg, err := f.provider.AuditPackageFor([]int{0, 1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.auditors[0].HandleAudit(pkg); err == nil {
		t.Fatal("audit without recorded choice accepted")
	}
}

func TestEmptyEpochRejected(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if _, err := f.provider.BuildEpoch(); err == nil {
		t.Fatal("empty epoch staged")
	}
}

func TestAbortKeepsPending(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.provider.BuildEpoch(); err != nil {
		t.Fatal(err)
	}
	f.provider.Abort()
	if f.provider.PendingLen() != 1 {
		t.Fatal("abort dropped pending entries")
	}
	if err := f.runEpoch(t, allLive(2)); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.provider.Get([]byte("u")); !ok {
		t.Fatal("entry lost after abort+retry")
	}
}

func TestGarbageCollectionBudget(t *testing.T) {
	cfg := testCfg()
	cfg.GCBudget = 2
	f := newFixture(t, cfg, 1)
	a := f.auditors[0]
	if err := a.GarbageCollect(); err != nil {
		t.Fatal(err)
	}
	if err := a.GarbageCollect(); err != nil {
		t.Fatal(err)
	}
	if err := a.GarbageCollect(); err == nil {
		t.Fatal("GC beyond budget allowed")
	}
	if a.GCRemaining() != 0 {
		t.Fatal("budget accounting wrong")
	}
}

func TestGCEnablesFreshEpoch(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if err := f.runEpoch(t, allLive(2)); err != nil {
		t.Fatal(err)
	}
	f.provider.GarbageCollect()
	for _, a := range f.auditors {
		if err := a.GarbageCollect(); err != nil {
			t.Fatal(err)
		}
	}
	// Same identifier is insertable again after GC (PIN attempt reset).
	if err := f.provider.Append([]byte("u"), []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := f.runEpoch(t, allLive(2)); err != nil {
		t.Fatal(err)
	}
}

func TestExternalReplay(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	for i := 0; i < 8; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("u%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.runEpoch(t, allLive(2)); err != nil {
		t.Fatal(err)
	}
	old := f.provider.Entries()
	if err := Replay(old, f.provider.Digest()); err != nil {
		t.Fatal(err)
	}
	for i := 8; i < 12; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("u%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.runEpoch(t, allLive(2)); err != nil {
		t.Fatal(err)
	}
	if err := CheckExtendsSnapshot(old, f.provider.Entries()); err != nil {
		t.Fatal(err)
	}
	// Mutated snapshot detected.
	mutated := append([]logtree.Entry(nil), f.provider.Entries()...)
	mutated[0].Val = []byte("evil")
	if err := CheckExtendsSnapshot(old, mutated); err == nil {
		t.Fatal("external auditor missed mutation")
	}
}

func TestBLSBackendEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("BLS pairing is slow in short mode")
	}
	f := newFixture(t, testCfg(), 3)
	for i := 0; i < 5; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("u%d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.runEpoch(t, allLive(3)); err != nil {
		t.Fatal(err)
	}
	for _, a := range f.auditors {
		if a.Digest() != f.provider.Digest() {
			t.Fatal("BLS epoch diverged")
		}
	}
}

// TestHandleCommitQuorumKeyDifferential runs epochs with missing signers
// and holds HandleCommit — the roster cache's quorum key and
// VerifyWithKey — to an oracle computed here from the public
// VerifyAggregate: the commit names a quorum of valid, distinct signers,
// and its aggregate verifies against their keys. Every commit that must be
// refused is offered twice, so the second offer meets whatever the first
// left cached (the quorum-key memo and the key's prepared lines), and
// neither may move the digest.
func TestHandleCommitQuorumKeyDifferential(t *testing.T) {
	t.Run(aggsig.Name, func(t *testing.T) {
		if testing.Short() {
			t.Skip("BLS pairing is slow in short mode")
		}
		testHandleCommitDifferential(t)
	})
}

func testHandleCommitDifferential(t *testing.T) {
	cfg := testCfg()
	cfg.MinSignerFrac = 0.4
	f := newFixture(t, cfg, 5)
	a := f.auditors[0]
	oracle := func(cm *CommitMessage) bool {
		if len(cm.Signers) < a.minSigns {
			return false
		}
		ordered := append([]int(nil), cm.Signers...)
		sort.Ints(ordered)
		pks := make([]aggsig.PublicKey, len(ordered))
		for i, s := range ordered {
			if s < 0 || s >= len(f.keys) || (i > 0 && s == ordered[i-1]) {
				return false
			}
			pks[i] = f.keys[s]
		}
		ok, err := aggsig.VerifyAggregate(pks, cm.Header.SigningBytes(), cm.AggSig)
		return err == nil && ok
	}
	rejectTwice := func(name string, cm *CommitMessage) {
		t.Helper()
		if oracle(cm) {
			t.Fatalf("%s: the oracle accepts it", name)
		}
		before := a.Digest()
		for try := 0; try < 2; try++ {
			if err := a.HandleCommit(cm); err == nil {
				t.Fatalf("%s: accepted (offer %d)", name, try+1)
			}
			if a.Digest() != before {
				t.Fatalf("%s: the digest moved", name)
			}
		}
	}
	accept := func(name string, id int, cm *CommitMessage) {
		t.Helper()
		if !oracle(cm) {
			t.Fatalf("%s: the oracle refuses it", name)
		}
		if err := f.auditors[id].HandleCommit(cm); err != nil {
			t.Fatalf("%s: auditor %d: %v", name, id, err)
		}
	}

	for epoch := 0; epoch < 3; epoch++ {
		for i := 0; i < 3; i++ {
			id := fmt.Sprintf("e%d-u%d", epoch, i)
			if err := f.provider.Append([]byte(id), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		// HSMs 3 and 4 are missing from the signer set each epoch, so from
		// the second epoch on the cached path meets its remembered key.
		live := []int{0, 1, 2}
		hdr, err := f.provider.BuildEpoch()
		if err != nil {
			t.Fatal(err)
		}
		sigs := make([][]byte, len(live))
		for _, id := range live {
			chunks, err := f.auditors[id].ChooseChunks(hdr)
			if err != nil {
				t.Fatal(err)
			}
			pkg, err := f.provider.AuditPackageFor(chunks)
			if err != nil {
				t.Fatal(err)
			}
			if sigs[id], err = f.auditors[id].HandleAudit(pkg); err != nil {
				t.Fatal(err)
			}
		}
		// The signatures arrive in reverse; the commit lists them in order.
		cm, err := f.provider.Commit([][]byte{sigs[2], sigs[1], sigs[0]}, []int{2, 1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(cm.Signers) != fmt.Sprint(live) {
			t.Fatalf("commit lists signers %v, want %v", cm.Signers, live)
		}
		with := func(signers []int, aggSig []byte) *CommitMessage {
			return &CommitMessage{Header: cm.Header, AggSig: aggSig, Signers: signers}
		}
		partial, err := aggsig.Aggregate(sigs[:2])
		if err != nil {
			t.Fatal(err)
		}
		rejectTwice("forged aggregate", with(live, partial))
		rejectTwice("wrong signer set (claims the missing HSM 3 signed)", with([]int{0, 1, 3}, cm.AggSig))
		rejectTwice("sub-quorum signer set", with([]int{0}, sigs[0]))
		rejectTwice("duplicate signer index", with([]int{0, 1, 2, 2}, cm.AggSig))
		rejectTwice("negative signer index", with([]int{0, 1, 2, -1}, cm.AggSig))
		rejectTwice("out-of-range signer index", with([]int{0, 1, 2, 99}, cm.AggSig))
		if epoch == 2 {
			// A member registers after the key for "3 and 4 missing" was
			// remembered (the forged-aggregate offer, made again here, is
			// the last to have asked for it). A commit that now also names
			// the newcomer as a signer leaves the same members out;
			// verified against the stale key it would pass on the three
			// real signatures.
			rejectTwice("forged aggregate", with(live, partial))
			s, err := aggsig.KeyGen(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			f.roster.AppendKey(s.PublicKey())
			f.keys = append(f.keys, s.PublicKey())
			rejectTwice("stale quorum key after AppendKey", with([]int{0, 1, 2, 5}, cm.AggSig))
		}
		// The same signatures listed, and aggregated, in another order:
		// the aggregate is a sum and its quorum key a set.
		permuted, err := aggsig.Aggregate([][]byte{sigs[2], sigs[0], sigs[1]})
		if err != nil {
			t.Fatal(err)
		}
		accept("first commit", 0, with([]int{2, 0, 1}, permuted))
		for _, id := range live[1:] {
			accept("commit", id, cm)
		}
		for _, id := range live {
			if f.auditors[id].Digest() != f.provider.Digest() {
				t.Fatalf("epoch %d: auditor %d did not reach the provider's digest", epoch, id)
			}
		}
	}
}

// TestRepeatedRosterKeyFailsClosed: a roster that names one key twice has
// no aggregate key, so a commit that counts one signature twice — once for
// each copy of the key — is refused and no digest moves, whether the
// commit also names other signers or only the two copies.
func TestRepeatedRosterKeyFailsClosed(t *testing.T) {
	f := newFixture(t, testCfg(), 3)
	f.roster.SetRoster([]aggsig.PublicKey{f.keys[0], f.keys[1], f.keys[1]})
	hdr, sigs := f.auditAll(t, "u", 1, []int{0, 1})
	before := f.auditors[0].Digest()
	for _, c := range []struct {
		signers []int
		sigs    [][]byte
	}{
		{[]int{0, 1, 2}, [][]byte{sigs[0], sigs[1], sigs[1]}},
		{[]int{1, 2}, [][]byte{sigs[1], sigs[1]}},
	} {
		agg, err := aggsig.Aggregate(c.sigs)
		if err != nil {
			t.Fatal(err)
		}
		cm := &CommitMessage{Header: hdr, AggSig: agg, Signers: c.signers}
		for id, a := range f.auditors {
			err := a.HandleCommit(cm)
			if err == nil || !strings.Contains(err.Error(), "repeats an earlier key") {
				t.Fatalf("signers %v: auditor %d: err = %v, want a refused repeated key", c.signers, id, err)
			}
			if a.Digest() != before {
				t.Fatalf("signers %v: auditor %d moved its digest", c.signers, id)
			}
		}
	}
}

// TestPendingChoicesBounded pins the auditor's chunk-choice bookkeeping: a
// provider cannot grow it by proposing headers it never audits, a retried
// exchange still audits, and moving the digest empties it.
func TestPendingChoicesBounded(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	a := f.auditors[0]
	pendingLen := func() int {
		a.mu.Lock()
		defer a.mu.Unlock()
		return len(a.pending)
	}

	// Headers that do not extend the auditor's digest leave nothing behind.
	stale := hdr
	stale.OldDigest[0] ^= 1
	if _, err := a.ChooseChunks(stale); err != nil {
		t.Fatal(err)
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("a header on another digest left %d choices", n)
	}

	// 10,000 distinct headers on the current digest, none audited.
	refused := 0
	for i := 0; i < 10000; i++ {
		h := hdr
		h.Epoch = uint64(1000 + i)
		if _, err := a.ChooseChunks(h); err != nil {
			refused++
		}
	}
	if n := pendingLen(); n != maxPendingChoices {
		t.Fatalf("%d choices held after 10000 unaudited headers, want the cap %d", n, maxPendingChoices)
	}
	if refused != 10000-maxPendingChoices {
		t.Fatalf("%d choices refused, want %d", refused, 10000-maxPendingChoices)
	}
	if _, err := a.ChooseChunks(hdr); err == nil {
		t.Fatal("a new header was accepted beyond the cap")
	}

	// A commit moves the digest and empties the map; so does a GC.
	b := f.auditors[1]
	chunks, err := b.ChooseChunks(hdr)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := f.provider.AuditPackageFor(chunks)
	if err != nil {
		t.Fatal(err)
	}
	sig, err := b.HandleAudit(pkg)
	if err != nil {
		t.Fatal(err)
	}
	cm, err := f.provider.Commit([][]byte{sig}, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.HandleCommit(cm); err != nil {
		t.Fatal(err)
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("%d choices survived the commit", n)
	}
	if err := b.HandleCommit(cm); err != nil {
		t.Fatal(err)
	}

	// Retry after a transient failure: the exchange re-chooses for the
	// same header (one entry, overwritten) and the audit then succeeds and
	// drops it.
	if err := f.provider.Append([]byte("u2"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr2, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.ChooseChunks(hdr2); err != nil {
		t.Fatal(err)
	}
	chunks, err = a.ChooseChunks(hdr2) // the reply to the first was lost
	if err != nil {
		t.Fatal(err)
	}
	if n := pendingLen(); n != 1 {
		t.Fatalf("re-choosing for one header holds %d choices", n)
	}
	pkg, err = f.provider.AuditPackageFor(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleAudit(pkg); err != nil {
		t.Fatalf("audit after a retried choice: %v", err)
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("%d choices left after the audit", n)
	}
	if _, err := a.ChooseChunks(hdr2); err != nil {
		t.Fatal(err)
	}
	if err := a.GarbageCollect(); err != nil {
		t.Fatal(err)
	}
	if n := pendingLen(); n != 0 {
		t.Fatalf("%d choices survived garbage collection", n)
	}
}

func TestMeterRecordsAuditWork(t *testing.T) {
	f := newFixture(t, testCfg(), 2)
	m := meter.New()
	f.auditors[0].meter = m
	f.auditAll(t, "u", 1, []int{0})
	if m.Get(meter.OpHMAC) == 0 {
		t.Fatal("audit hashing not metered")
	}
	if m.Get(meter.OpBLSSign) != 1 {
		t.Fatal("signing not metered")
	}
}

// TestMeterCosts pins what HandleCommit charges for its verification: one
// multi-pairing of two pairs (2 Miller loops, 1 final exponentiation)
// whatever the signer count, n−1 G2 additions for the quorum key, and one
// subgroup check for the aggregate off the wire (§6.2's point: the HSM's
// check does not grow with the fleet).
func TestMeterCosts(t *testing.T) {
	const fleet = 4
	f := newFixture(t, testCfg(), fleet)
	meters := make([]*meter.Meter, fleet)
	for i, a := range f.auditors {
		meters[i] = meter.New()
		a.meter = meters[i]
	}
	live := []int{0, 1, 2}
	hdr, sigs := f.auditAll(t, "u", 1, live)
	// Two commits: the honest one from three signers, offered to the
	// missing HSM 3, and one from two of them that a signer refuses
	// after paying for the check.
	cm, err := f.provider.Commit(sigs, live)
	if err != nil {
		t.Fatal(err)
	}
	two, err := aggsig.Aggregate(sigs[:2])
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		id int
		cm *CommitMessage
		ok bool
	}{
		{3, cm, true},
		{0, &CommitMessage{Header: hdr, AggSig: two, Signers: []int{0, 2}}, false},
	} {
		m := meters[c.id]
		m.Reset()
		if err := f.auditors[c.id].HandleCommit(c.cm); (err == nil) != c.ok {
			t.Fatalf("auditor %d: err = %v", c.id, err)
		}
		n := int64(len(c.cm.Signers))
		for op, want := range map[meter.Op]int64{
			meter.OpMillerLoop: 2, meter.OpFinalExp: 1, meter.OpG2Add: n - 1, meter.OpSubgroupCheck: 1,
		} {
			if got := m.Get(op); got != want {
				t.Fatalf("auditor %d, %d signers: %s = %d, want %d", c.id, n, op, got, want)
			}
		}
	}
}

func BenchmarkEpoch100Inserts(b *testing.B) {
	cfg := testCfg()
	cfg.NumChunks = 8
	cfg.AuditsPerHSM = 2
	f := newFixture(b, cfg, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < 100; j++ {
			if err := f.provider.Append([]byte(fmt.Sprintf("b%d-u%d", i, j)), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
		if err := f.runEpoch(b, allLive(4)); err != nil {
			b.Fatal(err)
		}
	}
}
