package provider

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"safetypin/internal/aggsig"
	"safetypin/internal/dlog"
	"safetypin/internal/protocol"
	"safetypin/internal/securestore"
	"safetypin/internal/storage"
)

var tctx = context.Background()

func logCfg() dlog.Config {
	return dlog.Config{
		NumChunks:     2,
		AuditsPerHSM:  2,
		MinSignerFrac: 0.5,
	}
}

// mustOpen opens a provider, failing the test on a replay error.
func mustOpen(t testing.TB, cfg dlog.Config, engine EngineConfig) *Provider {
	t.Helper()
	p, err := Open(cfg, engine)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// logged reports whether the committed log holds an entry for id.
func logged(p *Provider, id []byte) bool {
	for _, e := range p.LogEntries() {
		if bytes.Equal(e.ID, id) {
			return true
		}
	}
	return false
}

// TestRosterSurvivesReopen: journaled registrations are replayed on Open
// (sorted by ID for the daemon to re-dial), and a registration after the
// reopen joins them.
func TestRosterSurvivesReopen(t *testing.T) {
	entry := func(id int) RosterEntry {
		s, err := aggsig.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		return RosterEntry{ID: id, Addr: fmt.Sprint("hsm-", id), AggPub: s.PublicKey().Bytes()}
	}
	entries := []RosterEntry{entry(9), entry(2), entry(6)}
	mem := storage.NewMem()
	p := mustOpen(t, logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1})
	for _, e := range entries {
		if err := p.JournalRoster(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Close marked the engine closed; recovery replays the crash clone.
	p2 := mustOpen(t, logCfg(), EngineConfig{Storage: mem.CrashClone(), SnapshotEvery: -1})
	defer p2.Close()
	late := entry(4)
	if err := p2.JournalRoster(late); err != nil {
		t.Fatal(err)
	}
	want := []RosterEntry{entries[1], late, entries[2], entries[0]}
	if got := p2.RecoveredRoster(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("roster after reopen = %v, want %v", got, want)
	}
}

func TestCiphertextStore(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	if err := p.StoreCiphertext(tctx, "", []byte("x")); err == nil {
		t.Fatal("empty user accepted")
	}
	if _, err := p.FetchCiphertext(tctx, "ghost"); err == nil {
		t.Fatal("fetch for unknown user succeeded")
	}
	if err := p.StoreCiphertext(tctx, "alice", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := p.StoreCiphertext(tctx, "alice", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := p.FetchCiphertext(tctx, "alice")
	if err != nil || string(got) != "v2" {
		t.Fatalf("latest fetch wrong: %q %v", got, err)
	}
	if p.CiphertextCount("alice") != 2 {
		t.Fatal("count wrong")
	}
	// Returned slices are copies.
	got[0] = 'X'
	again, _ := p.FetchCiphertext(tctx, "alice")
	if string(again) != "v2" {
		t.Fatal("internal state aliased to caller")
	}
}

func TestAttemptAccounting(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	if n, _ := p.AttemptCount(tctx, "alice"); n != 0 {
		t.Fatal("fresh user should have zero attempts")
	}
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h0")); err != nil {
		t.Fatal(err)
	}
	if n, _ := p.AttemptCount(tctx, "alice"); n != 1 {
		t.Fatal("attempt not counted")
	}
	// Duplicate (user, attempt) is a duplicate log identifier.
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h1")); err == nil {
		t.Fatal("duplicate attempt id accepted")
	}
}

func TestRunEpochNoParticipants(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err == nil {
		t.Fatal("epoch without HSMs should fail")
	}
	// Pending entries survive for a retry.
	if p.PendingLogLen() != 1 {
		t.Fatal("pending batch lost after failed epoch")
	}
}

// stubHSM implements HSMHandle for provider-level tests.
type stubHSM struct {
	id      int
	failing bool
	signer  aggsig.Signer
	auditor *dlog.Auditor
}

func (s *stubHSM) ID() int { return s.id }
func (s *stubHSM) LogChooseChunks(_ context.Context, hdr dlog.EpochHeader) ([]int, error) {
	if s.failing {
		return nil, errors.New("down")
	}
	return s.auditor.ChooseChunks(hdr)
}
func (s *stubHSM) LogHandleAudit(_ context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	if s.failing {
		return nil, errors.New("down")
	}
	return s.auditor.HandleAudit(pkg)
}
func (s *stubHSM) LogHandleCommit(_ context.Context, cm *dlog.CommitMessage) error {
	if s.failing {
		return errors.New("down")
	}
	return s.auditor.HandleCommit(cm)
}
func (s *stubHSM) HandleRecover(_ context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	if s.failing {
		return nil, errors.New("down")
	}
	return &protocol.RecoveryReply{HSMIndex: s.id, SharePos: req.SharePos, Box: []byte("box")}, nil
}

func newStubFleet(t *testing.T, p *Provider, n int, failing map[int]bool) []*stubHSM {
	t.Helper()
	out := buildStubs(t, p, logCfg(), n)
	for _, h := range out {
		h.failing = failing[h.id]
		p.Register(h)
	}
	return out
}

func TestRunEpochToleratesFailures(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	newStubFleet(t, p, 4, map[int]bool{3: true})
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil && !errors.Is(err, errStubDown) {
		// The failing HSM's commit error may surface; the epoch itself must
		// have committed, which we verify via the digest.
	}
	if p.PendingLogLen() != 0 {
		t.Fatal("epoch did not commit despite quorum")
	}
	if !logged(p, protocol.LogID("alice", 0)) {
		t.Fatal("entry missing after commit")
	}
}

var errStubDown = errors.New("down")

// reversedHSM answers its audit only after the next-higher HSM has, so a
// fleet of them answers in descending id order.
type reversedHSM struct {
	*stubHSM
	wait, done chan struct{}
}

func (r *reversedHSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	if r.wait != nil {
		select {
		case <-r.wait:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	defer close(r.done)
	return r.stubHSM.LogHandleAudit(ctx, pkg)
}

// TestEpochSignersCanonicalOrder: HSMs that answer the audit in reverse
// still produce a commit, and a journal record, that lists the signers in
// ascending order, and every HSM accepts the commit.
func TestEpochSignersCanonicalOrder(t *testing.T) {
	const n = 4
	mem := storage.NewMem()
	p, err := Open(logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1, EpochWorkers: n})
	if err != nil {
		t.Fatal(err)
	}
	stubs := buildStubs(t, p, logCfg(), n)
	var next chan struct{}
	for i := n - 1; i >= 0; i-- {
		h := &reversedHSM{stubHSM: stubs[i], wait: next, done: make(chan struct{})}
		next = h.done
		p.Register(h)
	}
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	for _, s := range stubs {
		if s.auditor.Digest() != p.log.Digest() {
			t.Fatalf("HSM %d refused the commit", s.id)
		}
	}
	var journaled []uint32
	if _, err := mem.Replay(func(_ uint64, rec storage.Record) error {
		if r, ok := rec.(*storage.EpochCommitRecord); ok {
			journaled = r.Signers
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(journaled) != "[0 1 2 3]" {
		t.Fatalf("journaled signers %v, want ascending [0 1 2 3]", journaled)
	}
}

// commitDropper audits but refuses every commit, like an HSM a crash cut
// off from the commit fan-out.
type commitDropper struct{ *stubHSM }

func (commitDropper) LogHandleCommit(context.Context, *dlog.CommitMessage) error { return errStubDown }

// commitRecorder keeps the last commit it was offered.
type commitRecorder struct {
	*stubHSM
	got *dlog.CommitMessage
}

func (c *commitRecorder) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	c.got = cm
	return c.stubHSM.LogHandleCommit(ctx, cm)
}

// TestResendLastCommitProvesReopenedCommit: the journal keeps no residue
// witness and no cofactor preimage, so a provider reopened after an epoch
// rebuilds its last commit without them. ResendLastCommit proves both
// again from the journaled header, aggregate and signers against the
// signing roster — the preimage the one the epoch sent — and the HSM
// that missed the fan-out accepts it and catches up; without a roster
// there is nothing to resend.
func TestResendLastCommitProvesReopenedCommit(t *testing.T) {
	const n = 4
	mem := storage.NewMem()
	p := mustOpen(t, logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1})
	stubs := buildStubs(t, p, logCfg(), n)
	roster := p.signingRoster()
	p.Register(commitDropper{stubs[0]})
	for _, s := range stubs[1:] {
		p.Register(s)
	}
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	if stubs[0].auditor.Digest() == p.log.Digest() {
		t.Fatal("HSM 0 took the commit")
	}
	p.durMu.Lock()
	sent := *p.lastCommit
	p.durMu.Unlock()

	// kill -9: abandon p, reopen over the same engine.
	p2 := mustOpen(t, logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1})
	defer p2.Close()
	p2.durMu.Lock()
	last := p2.lastCommit
	p2.durMu.Unlock()
	if last == nil || len(last.AggSig) == 0 || last.Witness != nil || last.Preimage != nil {
		t.Fatalf("reopened last commit = %+v, want the journaled one without a witness or a preimage", last)
	}
	lagging := &commitRecorder{stubHSM: stubs[0]}
	p2.Register(lagging)
	for _, s := range stubs[1:] {
		p2.Register(s)
	}
	if got := p2.ResendLastCommit(tctx); got != 0 {
		t.Fatalf("resend without a signing roster delivered %d", got)
	}
	p2.SetSigningRoster(roster)
	if got := p2.ResendLastCommit(tctx); got != 1 {
		t.Fatalf("resend delivered %d commits, want 1 (the lagging HSM)", got)
	}
	if lagging.got == nil || !bytes.Equal(lagging.got.Preimage, sent.Preimage) || len(sent.Preimage) == 0 {
		t.Fatal("the resent commit does not carry the preimage the epoch sent")
	}
	for _, s := range stubs {
		if s.auditor.Digest() != p2.log.Digest() {
			t.Fatalf("HSM %d at another digest after the resend", s.id)
		}
	}
}

// garbledHSM audits honestly but returns a signature that does not
// decode: a valid tag and length whose x is off the curve.
type garbledHSM struct{ *stubHSM }

func (g garbledHSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	sig, err := g.stubHSM.LogHandleAudit(ctx, pkg)
	if err != nil {
		return nil, err
	}
	sig[len(sig)-1] ^= 1
	return sig, nil
}

// TestEpochSkipsUndecodableSignature: an HSM whose signature does not
// decode is left out of the signer set, as an unreachable one is, and the
// epoch commits with the rest — the audit worker decodes each signature,
// so the commit never sees the bad bytes.
func TestEpochSkipsUndecodableSignature(t *testing.T) {
	const n = 4
	mem := storage.NewMem()
	p, err := Open(logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	stubs := buildStubs(t, p, logCfg(), n)
	for i, s := range stubs {
		if i == 2 {
			p.Register(garbledHSM{s})
			continue
		}
		p.Register(s)
	}
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	if !logged(p, protocol.LogID("alice", 0)) {
		t.Fatal("entry missing after commit")
	}
	for _, s := range stubs {
		if s.auditor.Digest() != p.log.Digest() {
			t.Fatalf("HSM %d refused the commit", s.id)
		}
	}
	var journaled []uint32
	if _, err := mem.Replay(func(_ uint64, rec storage.Record) error {
		if r, ok := rec.(*storage.EpochCommitRecord); ok {
			journaled = r.Signers
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(journaled) != "[0 1 3]" {
		t.Fatalf("journaled signers %v, want [0 1 3]", journaled)
	}
}

func TestRelayRecoverRouting(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	newStubFleet(t, p, 4, nil)
	req := &protocol.RecoveryRequest{User: "alice", SharePos: 0, Cluster: []int{2}}
	reply, err := p.RelayRecover(tctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.HSMIndex != 2 {
		t.Fatal("routed to wrong HSM")
	}
	// Escrowed for crash recovery.
	if got, _ := p.FetchEscrowedReplies(tctx, "alice"); len(got) != 1 {
		t.Fatalf("escrow has %d replies", len(got))
	}
	p.ClearEscrow(tctx, "alice")
	if got, _ := p.FetchEscrowedReplies(tctx, "alice"); len(got) != 0 {
		t.Fatal("escrow not cleared")
	}
}

func TestRelayRecoverValidation(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	if _, err := p.RelayRecover(tctx, &protocol.RecoveryRequest{SharePos: 0, Cluster: nil}); err == nil {
		t.Fatal("malformed cluster accepted")
	}
	if _, err := p.RelayRecover(tctx, &protocol.RecoveryRequest{SharePos: 0, Cluster: []int{7}}); err == nil {
		t.Fatal("unknown HSM accepted")
	}
}

func TestGarbageCollectResetsAttempts(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	newStubFleet(t, p, 2, nil)
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h")); err != nil {
		t.Fatal(err)
	}
	if err := p.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	p.GarbageCollectLog()
	if n, _ := p.AttemptCount(tctx, "alice"); n != 0 {
		t.Fatal("attempts not reset by GC")
	}
	if len(p.LogEntries()) != 0 {
		t.Fatal("log not cleared by GC")
	}
	// Same id is insertable again.
	if err := p.LogRecoveryAttempt(tctx, "alice", 0, []byte("h2")); err != nil {
		t.Fatal(err)
	}
}

func TestOracleLifecycle(t *testing.T) {
	p := mustOpen(t, logCfg(), EngineConfig{})
	o1 := p.OracleFor(0)
	if o1 != p.OracleFor(0) {
		t.Fatal("oracle not stable per HSM")
	}
	if err := o1.PutMany([]uint64{1}, [][]byte{[]byte("block")}); err != nil {
		t.Fatal(err)
	}
	if got, err := o1.GetMany([]uint64{1, 2}); err != nil || string(got[0]) != "block" || len(got[1]) != 0 {
		t.Fatalf("GetMany = %q, %v", got, err)
	}
	o2 := p.ReplaceOracle(0)
	if got, err := o2.GetMany([]uint64{1}); err != nil || len(got[0]) != 0 {
		t.Fatal("fresh oracle should be empty")
	}
	// Replace keeps the handle stable — live references held by an HSM
	// observe the emptied store rather than a stale one.
	if got, err := o1.GetMany([]uint64{1}); err != nil || len(got[0]) != 0 {
		t.Fatal("old reference should see the emptied store")
	}
}

// TestOracleBatchJournal: a batch is journaled as the per-block records a
// run of single writes would have left, in order, and a malformed batch —
// slices that disagree, or more blocks than the bound — journals nothing
// and stores nothing.
func TestOracleBatchJournal(t *testing.T) {
	mem := storage.NewMem()
	p, err := Open(logCfg(), EngineConfig{Storage: mem, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	o := p.OracleFor(3)
	addrs := []uint64{9, 4, 2, 1}
	blocks := [][]byte{[]byte("leaf"), []byte("n4"), []byte("n2"), []byte("root")}
	if err := o.PutMany(addrs, blocks); err != nil {
		t.Fatal(err)
	}
	if err := o.PutMany([]uint64{7, 8}, [][]byte{[]byte("x")}); err == nil {
		t.Fatal("PutMany accepted 2 addresses with 1 block")
	}
	big := make([]uint64, securestore.MaxBatch+1)
	if err := o.PutMany(big, make([][]byte, len(big))); err == nil {
		t.Fatal("PutMany accepted more than MaxBatch blocks")
	}
	if _, err := o.GetMany(big); err == nil {
		t.Fatal("GetMany accepted more than MaxBatch addresses")
	}
	var journaled []*storage.OraclePutRecord
	if _, err := mem.Replay(func(_ uint64, rec storage.Record) error {
		if r, ok := rec.(*storage.OraclePutRecord); ok {
			journaled = append(journaled, r)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(journaled) != len(addrs) {
		t.Fatalf("%d oracle records journaled, want %d", len(journaled), len(addrs))
	}
	for i, r := range journaled {
		if r.HSMID != 3 || r.Addr != addrs[i] || !bytes.Equal(r.Block, blocks[i]) {
			t.Fatalf("record %d = {%d %d %q}, want {3 %d %q}", i, r.HSMID, r.Addr, r.Block, addrs[i], blocks[i])
		}
	}
	if got, err := o.GetMany([]uint64{7, 8, 0}); err != nil || len(got[0])+len(got[1])+len(got[2]) != 0 {
		t.Fatalf("a refused batch was stored: %q, %v", got, err)
	}
}

// CiphertextCount returns how many backups a user has stored.
func (p *Provider) CiphertextCount(user string) int {
	s := p.shardFor(user)
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.cts[user])
}
