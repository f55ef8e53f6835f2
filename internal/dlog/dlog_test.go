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
		s, err := cfg.Scheme.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		roster[i] = s.PublicKey()
	}
	// One roster cache for the whole fleet, as an in-process deployment
	// shares it.
	cache := aggsig.NewRosterCache(cfg.Scheme)
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
		Scheme:        aggsig.ECDSAConcat(), // fast scheme for most tests
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
	cfg := testCfg()
	cfg.Scheme = aggsig.BLS()
	f := newFixture(t, cfg, 3)
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
// under both schemes and holds HandleCommit — the roster cache's quorum
// key and VerifyWithKey — to an oracle computed here from the scheme's
// public VerifyAggregate: the commit names a quorum of valid, distinct
// signers, and its aggregate verifies against their keys in roster order.
// Every commit that must be refused is offered twice, so the second offer
// meets whatever the first left cached (the quorum-key memo and, for BLS,
// the key's prepared lines), and neither may move the digest.
func TestHandleCommitQuorumKeyDifferential(t *testing.T) {
	for _, sc := range []aggsig.Scheme{aggsig.BLS(), aggsig.ECDSAConcat()} {
		t.Run(sc.Name(), func(t *testing.T) {
			if testing.Short() && sc.Name() != "ecdsa-concat" {
				t.Skip("BLS pairing is slow in short mode")
			}
			testHandleCommitDifferential(t, sc)
		})
	}
}

func testHandleCommitDifferential(t *testing.T, sc aggsig.Scheme) {
	cfg := testCfg()
	cfg.Scheme = sc
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
		ok, err := sc.VerifyAggregate(pks, cm.Header.SigningBytes(), cm.AggSig)
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
		partial, err := sc.Aggregate(sigs[:2])
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
			s, err := sc.KeyGen(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			f.roster.AppendKey(s.PublicKey())
			f.keys = append(f.keys, s.PublicKey())
			rejectTwice("stale quorum key after AppendKey", with([]int{0, 1, 2, 5}, cm.AggSig))
		}
		// The same signatures listed, and aggregated, in another order:
		// the BLS aggregate is a sum and its quorum key a set, while
		// ECDSA-concat checks signature i against the i-th signer in
		// roster order.
		permuted, err := sc.Aggregate([][]byte{sigs[2], sigs[0], sigs[1]})
		if err != nil {
			t.Fatal(err)
		}
		first := cm
		if sc.Name() == "ecdsa-concat" {
			rejectTwice("permuted signers", with([]int{2, 0, 1}, permuted))
		} else {
			first = with([]int{2, 0, 1}, permuted)
		}
		accept("first commit", 0, first)
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

// TestRepeatedRosterKeyFailsClosed: an ECDSA-concat roster that names one
// key twice has no aggregate key, so every commit is refused and no digest
// moves, whichever members signed.
func TestRepeatedRosterKeyFailsClosed(t *testing.T) {
	f := newFixture(t, testCfg(), 3)
	f.roster.SetRoster([]aggsig.PublicKey{f.keys[0], f.keys[1], f.keys[1]})
	if err := f.provider.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, sigs := f.auditAll(t, "u", 0, []int{0, 1, 2})
	before := f.auditors[0].Digest()
	for _, signers := range [][]int{{0, 1, 2}, {0, 1}} {
		agg, err := f.cfg.Scheme.Aggregate(sigs[:len(signers)])
		if err != nil {
			t.Fatal(err)
		}
		cm := &CommitMessage{Header: hdr, AggSig: agg, Signers: signers}
		for id, a := range f.auditors {
			err := a.HandleCommit(cm)
			if err == nil || !strings.Contains(err.Error(), "repeats an earlier key") {
				t.Fatalf("signers %v: auditor %d: err = %v, want a refused repeated key", signers, id, err)
			}
			if a.Digest() != before {
				t.Fatalf("signers %v: auditor %d moved its digest", signers, id)
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
	cfg := testCfg()
	m := meter.New()
	signers := make([]aggsig.Signer, 2)
	roster := make([]aggsig.PublicKey, 2)
	for i := range signers {
		s, err := cfg.withDefaults().Scheme.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		signers[i] = s
		roster[i] = s.PublicKey()
	}
	p := NewProvider(cfg)
	cache := aggsig.NewRosterCache(cfg.Scheme)
	cache.SetRoster(roster)
	a, err := NewAuditor(cfg, 0, cache, signers[0], m)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Append([]byte("u"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	hdr, err := p.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	chunks, _ := a.ChooseChunks(hdr)
	pkg, err := p.AuditPackageFor(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleAudit(pkg); err != nil {
		t.Fatal(err)
	}
	if m.Get(meter.OpHMAC) == 0 {
		t.Fatal("audit hashing not metered")
	}
	if m.Get(meter.OpECDSASign) != 1 {
		t.Fatal("signing not metered")
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
