package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"errors"
	"testing"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/dlog"
	"safetypin/internal/ecgroup"
	"safetypin/internal/hsm"
	"safetypin/internal/lhe"
	"safetypin/internal/provider"
)

var tctx = context.Background()

// rig wires a minimal fleet for client-level tests.
type rig struct {
	prov   *provider.Provider
	params lhe.Params
	fleet  *bfe.Fleet
	hsms   []*hsm.HSM
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	logCfg := dlog.Config{
		NumChunks:     n,
		AuditsPerHSM:  n,
		MinSignerFrac: 0.5,
	}
	hsmCfg := hsm.Config{BFE: bfe.Params{M: 128, K: 4}, Log: logCfg, GuessLimit: 4}
	prov, err := provider.Open(logCfg, provider.EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	signers, err := aggsig.KeyGenBatch(nil, rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	var pubs []*bfe.PublicKey
	var roster []aggsig.PublicKey
	var hsms []*hsm.HSM
	for i := 0; i < n; i++ {
		h, err := hsm.New(i, hsmCfg, prov.OracleFor(i), rand.Reader, nil, signers[i])
		if err != nil {
			t.Fatal(err)
		}
		hsms = append(hsms, h)
		pubs = append(pubs, h.BFEPublicKey())
		roster = append(roster, h.AggSigPublicKey())
	}
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(roster)
	prov.SetSigningRoster(cache)
	for _, h := range hsms {
		if err := h.InstallRoster(cache); err != nil {
			t.Fatal(err)
		}
		prov.Register(h)
	}
	params, err := lhe.NewParams(n, n/2, n/4)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{prov: prov, params: params, fleet: bfe.NewFleet(pubs), hsms: hsms}
}

func (r *rig) client(t testing.TB, user, pin string) *Client {
	t.Helper()
	c, err := New(user, pin, r.params, r.fleet, r.prov)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRoundTrip(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if err := c.Backup(tctx, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "msg" {
		t.Fatal("mismatch")
	}
}

func TestBeginWithoutBackup(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "ghost", "123456")
	if _, err := c.Begin(tctx, ""); err == nil {
		t.Fatal("Begin succeeded without a stored backup")
	}
}

func TestSaltRotatesAfterRecovery(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	saltBefore := c.Salt()
	if err := c.Backup(tctx, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, ""); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(saltBefore, c.Salt()) {
		t.Fatal("salt not refreshed after recovery (§8)")
	}
}

func TestRequestShareOutOfRange(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if err := c.Backup(tctx, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RequestShare(tctx, -1); err == nil {
		t.Fatal("negative index accepted")
	}
	if err := s.RequestShare(tctx, len(s.Cluster())); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestFinishBelowThreshold(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if err := c.Backup(tctx, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Finish(tctx); !errors.Is(err, ErrTooFewShares) {
		t.Fatalf("want ErrTooFewShares, got %v", err)
	}
}

func TestCompleteFromEscrowRequiresEscrow(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if err := c.Backup(tctx, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	kp, err := ecgroup.GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompleteFromEscrow(tctx, kp); err == nil {
		t.Fatal("escrow completion without escrow succeeded")
	}
}

func TestCompleteFromEscrowWrongKey(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if err := c.Backup(tctx, []byte("msg")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for j := range s.Cluster() {
		if err := s.RequestShare(tctx, j); err != nil {
			t.Fatal(err)
		}
	}
	// Replacement device with the WRONG ephemeral key cannot read the
	// escrowed replies.
	wrong, err := ecgroup.GenerateKeyPair(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.CompleteFromEscrow(tctx, wrong); err == nil {
		t.Fatal("escrow decrypted under wrong ephemeral key")
	}
	// The right key works.
	got, err := c.CompleteFromEscrow(tctx, s.ReplyKey)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "msg" {
		t.Fatal("escrow recovery mismatch")
	}
}

func TestIncrementalWrongKeyFails(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	master, err := c.EnableIncrementalBackups(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.IncrementalBackup(tctx, master, []byte("delta")); err != nil {
		t.Fatal(err)
	}
	bogus := make([]byte, len(master))
	if _, err := c.FetchIncremental(tctx, bogus); err == nil {
		t.Fatal("incremental blob decrypted under wrong master key")
	}
	got, err := c.FetchIncremental(tctx, master)
	if err != nil || string(got) != "delta" {
		t.Fatalf("incremental fetch broken: %q %v", got, err)
	}
}

func TestMultipleBackupsLatestWins(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if err := c.Backup(tctx, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("v3")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v3" {
		t.Fatalf("recovered %q, want v3", got)
	}
}

func TestUserAccessor(t *testing.T) {
	r := newRig(t, 8)
	c := r.client(t, "alice", "123456")
	if c.User() != "alice" {
		t.Fatal("User() wrong")
	}
	if len(c.Salt()) != lhe.SaltSize {
		t.Fatal("Salt() wrong size")
	}
}
