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

func TestCiphertextStore(t *testing.T) {
	p := New(logCfg())
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
	p := New(logCfg())
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
	p := New(logCfg())
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
	cfg := logCfg()
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
	var out []*stubHSM
	for i := 0; i < n; i++ {
		a, err := dlog.NewAuditor(cfg, i, cache, signers[i], nil)
		if err != nil {
			t.Fatal(err)
		}
		h := &stubHSM{id: i, failing: failing[i], signer: signers[i], auditor: a}
		out = append(out, h)
		p.Register(h)
	}
	return out
}

func TestRunEpochToleratesFailures(t *testing.T) {
	p := New(logCfg())
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
	if _, ok := p.Get(protocol.LogID("alice", 0)); !ok {
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
	stubs := buildStubs(t, logCfg(), n)
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

func TestRelayRecoverRouting(t *testing.T) {
	p := New(logCfg())
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
	p := New(logCfg())
	if _, err := p.RelayRecover(tctx, &protocol.RecoveryRequest{SharePos: 0, Cluster: nil}); err == nil {
		t.Fatal("malformed cluster accepted")
	}
	if _, err := p.RelayRecover(tctx, &protocol.RecoveryRequest{SharePos: 0, Cluster: []int{7}}); err == nil {
		t.Fatal("unknown HSM accepted")
	}
}

func TestGarbageCollectResetsAttempts(t *testing.T) {
	p := New(logCfg())
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
	p := New(logCfg())
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
