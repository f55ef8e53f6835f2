package hsm

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"sync"
	"sync/atomic"
	"testing"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/dlog"
	"safetypin/internal/ecgroup"
	"safetypin/internal/lhe"
	"safetypin/internal/meter"
	"safetypin/internal/protocol"
	"safetypin/internal/provider"
	"safetypin/internal/securestore"
)

var tctx = context.Background()

// rig is a minimal single-purpose harness: a few HSMs wired to a provider,
// plus helpers to run the log and build valid recovery requests.
type rig struct {
	cfg   Config
	prov  *provider.Provider
	hsms  []*HSM
	fleet *bfe.Fleet
	lhe   lhe.Params
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	logCfg := dlog.Config{
		NumChunks:     n,
		AuditsPerHSM:  n,
		MinSignerFrac: 0.5,
	}
	cfg := Config{BFE: bfe.Params{M: 128, K: 4}, Log: logCfg, GuessLimit: 2}
	prov, err := provider.Open(logCfg, provider.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{cfg: cfg, prov: prov}
	signers, err := aggsig.KeyGenBatch(nil, rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	var pubs []*bfe.PublicKey
	var roster []aggsig.PublicKey
	for i := 0; i < n; i++ {
		h, err := New(i, cfg, r.prov.OracleFor(i), rand.Reader, meter.New(), signers[i])
		if err != nil {
			t.Fatal(err)
		}
		r.hsms = append(r.hsms, h)
		pubs = append(pubs, h.BFEPublicKey())
		roster = append(roster, h.AggSigPublicKey())
	}
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(roster)
	r.prov.SetSigningRoster(cache)
	for _, h := range r.hsms {
		if err := h.InstallRoster(cache); err != nil {
			t.Fatal(err)
		}
		r.prov.Register(h)
	}
	r.fleet = bfe.NewFleet(pubs)
	cl, th := n/2, n/4
	if cl < 1 {
		cl = 1
	}
	if th < 1 {
		th = 1
	}
	params, err := lhe.NewParams(n, cl, th)
	if err != nil {
		t.Fatal(err)
	}
	r.lhe = params
	return r
}

func (r *rig) backupAndLog(t testing.TB, user, pin string) (*lhe.Ciphertext, []byte, []int, []byte, ecgroup.KeyPair, *protocol.RecoveryRequest) {
	t.Helper()
	ct, err := r.lhe.Encrypt(r.fleet, user, pin, []byte("payload"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	blob := ct.Bytes()
	cluster, err := r.lhe.Select(ct.Salt, pin)
	if err != nil {
		t.Fatal(err)
	}
	nonce := make([]byte, protocol.CommitNonceSize)
	if _, err := rand.Read(nonce); err != nil {
		t.Fatal(err)
	}
	commit := protocol.Commitment(user, ct.Salt, protocol.HashCiphertext(blob), cluster, nonce)
	if err := r.prov.LogRecoveryAttempt(tctx, user, 0, commit); err != nil {
		t.Fatal(err)
	}
	if err := r.prov.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	trace, err := r.prov.FetchInclusionProof(tctx, user, 0, commit)
	if err != nil {
		t.Fatal(err)
	}
	kp, err := ecgroup.GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	req := &protocol.RecoveryRequest{
		User:        user,
		Salt:        ct.Salt,
		Attempt:     0,
		SharePos:    0,
		Cluster:     cluster,
		CommitNonce: nonce,
		CtHash:      protocol.HashCiphertext(blob),
		ShareCt:     ct.Shares[0],
		LogTrace:    trace,
		ReplyPK:     kp.PK,
	}
	return ct, blob, cluster, nonce, kp, req
}

func TestHandleRecoverHappyPath(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	h := r.hsms[cluster[0]]
	before := h.Punctures()
	reply, err := h.HandleRecover(tctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if reply.HSMIndex != h.ID() || reply.SharePos != 0 || len(reply.Box) == 0 {
		t.Fatalf("malformed reply: %+v", reply)
	}
	if h.Punctures() != before+1 {
		t.Fatal("puncture not recorded")
	}
}

// watchedOracle sits between one HSM and its hosted store: it counts the
// exchanges and checks on every one that the HSM holds keyMu, the lock that
// makes a decrypt and its puncture one key operation.
type watchedOracle struct {
	inner      securestore.Oracle
	h          *HSM
	mu         sync.Mutex
	gets, puts int
	unlocked   int   // exchanges made without keyMu held
	putErr     error // when set, writes fail with it
}

func watch(h *HSM, inner securestore.Oracle) *watchedOracle {
	o := &watchedOracle{inner: inner, h: h}
	h.SwapOracle(o)
	return o
}

func (o *watchedOracle) note(get bool) {
	free := o.h.keyMu.TryLock()
	if free {
		o.h.keyMu.Unlock()
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if free {
		o.unlocked++
	}
	if get {
		o.gets++
	} else {
		o.puts++
	}
}

func (o *watchedOracle) GetMany(addrs []uint64) ([][]byte, error) {
	o.note(true)
	return o.inner.GetMany(addrs)
}

func (o *watchedOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	o.note(false)
	if o.putErr != nil {
		return o.putErr
	}
	return o.inner.PutMany(addrs, blocks)
}

// TestHandleRecoverExchanges: a recovery costs this HSM two exchanges with
// the provider's store — load the share's K paths, which serve the decrypt,
// the username check and the puncture alike, and write the re-keyed union
// back — both inside keyMu. A replay of the same request finds the
// ciphertext dead with one read and writes nothing.
func TestHandleRecoverExchanges(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	h := r.hsms[cluster[0]]
	o := watch(h, r.prov.OracleFor(h.ID()))
	if _, err := h.HandleRecover(tctx, req); err != nil {
		t.Fatal(err)
	}
	if o.gets != 1 || o.puts != 1 {
		t.Fatalf("HandleRecover made %d reads and %d writes, want 1 and 1", o.gets, o.puts)
	}
	if _, err := h.HandleRecover(tctx, req); err == nil {
		t.Fatal("punctured share served twice")
	}
	if o.gets != 2 || o.puts != 1 {
		t.Fatalf("replay made %d reads and %d writes, want 1 and 0", o.gets-1, o.puts-1)
	}
	if o.unlocked != 0 {
		t.Fatalf("%d store exchanges ran without keyMu", o.unlocked)
	}
}

// TestHandleRecoverFailedWriteKeepsShare: the provider refuses the puncture's
// write. No reply leaves the HSM — a share must not be served unpunctured —
// and the key is still live: once the store takes writes again the same
// request is served.
func TestHandleRecoverFailedWriteKeepsShare(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	h := r.hsms[cluster[0]]
	o := watch(h, r.prov.OracleFor(h.ID()))
	o.putErr = errors.New("disk full")
	if _, err := h.HandleRecover(tctx, req); !errors.Is(err, o.putErr) {
		t.Fatalf("HandleRecover over a failing store: %v", err)
	}
	if h.Punctures() != 0 {
		t.Fatal("a failed puncture was counted")
	}
	o.putErr = nil
	if _, err := h.HandleRecover(tctx, req); err != nil {
		t.Fatalf("share lost to a failed write: %v", err)
	}
}

// TestHandleRecoverVerifiesUserBeforePuncture: mallory logs her own attempt
// against alice's ciphertext and asks alice's HSM for the share. The share
// is bound to alice's name, so the request dies inside the one store pass —
// after its read, before any write (bfe's TestFusedPassAtomicity checks the
// root key and the provider's blocks byte for byte): alice's share is not
// burnt and she still recovers.
func TestHandleRecoverVerifiesUserBeforePuncture(t *testing.T) {
	r := newRig(t, 8)
	_, blob, cluster, nonce, _, req := r.backupAndLog(t, "alice", "123456")
	h := r.hsms[cluster[0]]
	o := watch(h, r.prov.OracleFor(h.ID()))

	commit := protocol.Commitment("mallory", req.Salt, protocol.HashCiphertext(blob), cluster, nonce)
	if err := r.prov.LogRecoveryAttempt(tctx, "mallory", 0, commit); err != nil {
		t.Fatal(err)
	}
	if err := r.prov.RunEpoch(tctx); err != nil {
		t.Fatal(err)
	}
	trace, err := r.prov.FetchInclusionProof(tctx, "mallory", 0, commit)
	if err != nil {
		t.Fatal(err)
	}
	forged := *req
	forged.User, forged.LogTrace = "mallory", trace
	if _, err := h.HandleRecover(tctx, &forged); err == nil {
		t.Fatal("share bound to alice served to mallory")
	}
	if o.gets != 1 || o.puts != 0 || h.Punctures() != 0 {
		t.Fatalf("refused request made %d reads, %d writes, %d punctures; want 1, 0, 0", o.gets, o.puts, h.Punctures())
	}
	// alice's own proof predates mallory's epoch; fetch a current one.
	aliceCommit := protocol.Commitment("alice", req.Salt, protocol.HashCiphertext(blob), cluster, nonce)
	if req.LogTrace, err = r.prov.FetchInclusionProof(tctx, "alice", 0, aliceCommit); err != nil {
		t.Fatal(err)
	}
	if _, err := h.HandleRecover(tctx, req); err != nil {
		t.Fatalf("alice's recovery after the refused forgery: %v", err)
	}
}

// TestHandleRecoverConcurrentSameShare: eight devices replay one request at
// once. keyMu spans the decrypt and the puncture, so exactly one is served
// and the store is written once.
func TestHandleRecoverConcurrentSameShare(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	h := r.hsms[cluster[0]]
	o := watch(h, r.prov.OracleFor(h.ID()))
	var wg sync.WaitGroup
	var served atomic.Int32
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := h.HandleRecover(tctx, req); err == nil {
				served.Add(1)
			}
		}()
	}
	wg.Wait()
	if served.Load() != 1 || o.puts != 1 || h.Punctures() != 1 {
		t.Fatalf("%d requests served, %d writes, %d punctures; want 1 each", served.Load(), o.puts, h.Punctures())
	}
	if o.unlocked != 0 {
		t.Fatalf("%d store exchanges ran without keyMu", o.unlocked)
	}
}

func TestHandleRecoverWrongHSM(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	// Send the position-0 request to an HSM that is not cluster[0].
	var other *HSM
	for _, h := range r.hsms {
		if h.ID() != cluster[0] {
			other = h
			break
		}
	}
	if _, err := other.HandleRecover(tctx, req); err == nil {
		t.Fatal("foreign HSM served the request")
	}
}

func TestHandleRecoverGuessLimit(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	req.Attempt = r.cfg.GuessLimit // one past the budget
	if _, err := r.hsms[cluster[0]].HandleRecover(tctx, req); !errors.Is(err, ErrGuessLimit) {
		t.Fatalf("want ErrGuessLimit, got %v", err)
	}
}

func TestHandleRecoverBadCommitmentOpening(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	req.CommitNonce = make([]byte, protocol.CommitNonceSize) // wrong nonce
	if _, err := r.hsms[cluster[0]].HandleRecover(tctx, req); err == nil {
		t.Fatal("wrong commitment opening accepted")
	}
}

func TestHandleRecoverUnloggedAttempt(t *testing.T) {
	r := newRig(t, 8)
	_, _, cluster, _, _, req := r.backupAndLog(t, "alice", "123456")
	req.Attempt = 1 // logged attempt was #0; #1 is unlogged
	if _, err := r.hsms[cluster[0]].HandleRecover(tctx, req); err == nil {
		t.Fatal("unlogged attempt accepted")
	}
}

func TestHandleRecoverBeforeRoster(t *testing.T) {
	signer, err := aggsig.KeyGen(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h, err := New(0, Config{
		BFE: bfe.Params{M: 64, K: 4},
		Log: dlog.Config{},
	}, securestore.NewMemOracle(), rand.Reader, nil, signer)
	if err != nil {
		t.Fatal(err)
	}
	kp, _ := ecgroup.GenerateKeyPair(rand.Reader)
	req := &protocol.RecoveryRequest{
		User: "a", Salt: []byte("s"), Cluster: []int{0},
		CommitNonce: make([]byte, protocol.CommitNonceSize),
		ShareCt:     []byte("x"), LogTrace: nil, ReplyPK: kp.PK,
	}
	if _, err := h.HandleRecover(tctx, req); err == nil {
		t.Fatal("request served before roster installation")
	}
}

func TestRotationLifecycle(t *testing.T) {
	r := newRig(t, 4)
	h := r.hsms[0]
	if h.KeyEpoch() != 0 {
		t.Fatal("fresh HSM should be at key epoch 0")
	}
	pk, err := h.RotateKey(securestore.NewMemOracle())
	if err != nil {
		t.Fatal(err)
	}
	if h.KeyEpoch() != 1 {
		t.Fatal("rotation did not bump epoch")
	}
	if pk == nil || len(pk.Points) != r.cfg.BFE.M {
		t.Fatal("rotated key malformed")
	}
	// The published key must be the one the HSM now uses.
	if !bytes.Equal(h.BFEPublicKey().Points[0].Bytes(), pk.Points[0].Bytes()) {
		t.Fatal("published key differs from installed key")
	}
}

func TestNewRequiresSigner(t *testing.T) {
	if _, err := New(0, Config{BFE: bfe.Params{M: 64, K: 4}}, securestore.NewMemOracle(), rand.Reader, nil, nil); err == nil {
		t.Fatal("HSM provisioned without a signing key")
	}
}

func TestLogDigestTracksFleet(t *testing.T) {
	r := newRig(t, 4)
	d0, err := r.hsms[0].LogDigest()
	if err != nil {
		t.Fatal(err)
	}
	r.backupAndLog(t, "alice", "123456") // runs one epoch
	d1, err := r.hsms[0].LogDigest()
	if err != nil {
		t.Fatal(err)
	}
	if d0 == d1 {
		t.Fatal("digest did not advance with the epoch")
	}
	for _, h := range r.hsms[1:] {
		di, err := h.LogDigest()
		if err != nil {
			t.Fatal(err)
		}
		if di != d1 {
			t.Fatal("fleet digests diverged")
		}
	}
}

func TestGarbageCollectBudgetWiring(t *testing.T) {
	r := newRig(t, 2)
	for i := 0; i < dlog.DefaultGCBudget; i++ {
		if err := r.hsms[0].GarbageCollect(); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.hsms[0].GarbageCollect(); err == nil {
		t.Fatal("GC budget not enforced through the HSM")
	}
}
