package safetypin

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/lhe"
	"safetypin/internal/meter"
)

var tctx = context.Background()

// testParams returns a small fleet.
func testParams(n int) Params {
	return Params{
		NumHSMs:       n,
		ClusterSize:   min(8, n),
		Threshold:     min(8, n) / 2,
		BFE:           bfe.Params{M: 256, K: 8},
		MinSignerFrac: 0.5,
		GuessLimit:    1,
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func deploy(t testing.TB, p Params) *Deployment {
	t.Helper()
	d, err := NewDeployment(p)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestBackupRecoverEndToEnd(t *testing.T) {
	d := deploy(t, testParams(16))
	c, err := d.NewClient("alice", "123456")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("alice's disk image")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("recovered wrong data")
	}
}

func TestWrongPINFailsAndConsumesAttempt(t *testing.T) {
	d := deploy(t, testParams(16))
	c, err := d.NewClient("bob", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("data")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, "999999"); err == nil {
		t.Fatal("recovery with wrong PIN succeeded")
	}
	// GuessLimit = 1: the failed attempt consumed the budget, so even the
	// correct PIN is now refused by every HSM (brute-force defeat).
	if _, err := c.Recover(tctx, ""); err == nil {
		t.Fatal("second attempt allowed past guess limit")
	}
}

func TestGuessLimitAllowsRetries(t *testing.T) {
	p := testParams(16)
	p.GuessLimit = 3
	d := deploy(t, p)
	c, err := d.NewClient("carol", "123456")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("data")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, "000000"); err == nil {
		t.Fatal("wrong PIN succeeded")
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatalf("correct PIN within budget failed: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong data")
	}
}

func TestForwardSecrecyAfterRecovery(t *testing.T) {
	// After a completed recovery, the same ciphertext must be dead at every
	// HSM — even via direct access to the HSM decrypters, modelling full
	// post-recovery compromise (Figure 4's right-hand region).
	p := testParams(16)
	p.GuessLimit = 5
	d := deploy(t, p)
	c, err := d.NewClient("dave", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("secret")); err != nil {
		t.Fatal(err)
	}
	blob, err := d.Provider.FetchCiphertext(tctx, "dave")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, ""); err != nil {
		t.Fatal(err)
	}
	cluster, err := d.LHEParams().Select(ct.Salt, "123456")
	if err != nil {
		t.Fatal(err)
	}
	for j, hsmIdx := range cluster {
		dec := d.HSMs[hsmIdx].Decrypter()
		if _, err := lhe.DecryptShare(dec, "dave", ct.Salt, j, hsmIdx, ct.Shares[j]); err == nil {
			t.Fatalf("HSM %d can still decrypt after recovery", hsmIdx)
		}
	}
}

func TestSaltSeriesRevokedTogether(t *testing.T) {
	// §8: earlier backups in the same-salt series die with the recovered
	// one.
	p := testParams(16)
	p.GuessLimit = 5
	d := deploy(t, p)
	c, err := d.NewClient("erin", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("backup-1")); err != nil {
		t.Fatal(err)
	}
	oldBlob, err := d.Provider.FetchCiphertext(tctx, "erin")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("backup-2")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "backup-2" {
		t.Fatal("recovered stale backup")
	}
	// The older ciphertext is now equally dead.
	oldCt, err := lhe.CiphertextFromBytes(oldBlob)
	if err != nil {
		t.Fatal(err)
	}
	cluster, _ := d.LHEParams().Select(oldCt.Salt, "123456")
	for j, hsmIdx := range cluster {
		if _, err := lhe.DecryptShare(d.HSMs[hsmIdx].Decrypter(), "erin", oldCt.Salt, j, hsmIdx, oldCt.Shares[j]); err == nil {
			t.Fatalf("HSM %d can still decrypt the pre-recovery backup", hsmIdx)
		}
	}
}

func TestFaultToleranceFailStopHSMs(t *testing.T) {
	// Property 3: recovery succeeds although some cluster HSMs fail-stop.
	// We simulate failure by refusing the recovery RPC at chosen HSMs: the
	// client collects only the surviving shares.
	p := testParams(16)
	p.ClusterSize = 8
	p.Threshold = 4
	d := deploy(t, p)
	c, err := d.NewClient("frank", "123456")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("resilient data")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	cluster := s.Cluster()
	// Contact only positions 2..7 (simulating positions 0,1 failed): still
	// ≥ t = 4 shares.
	for j := 2; j < len(cluster); j++ {
		if err := s.RequestShare(tctx, j); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.Finish(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("wrong data after partial cluster")
	}
}

func TestTooManyFailuresBlockRecovery(t *testing.T) {
	p := testParams(16)
	p.ClusterSize = 8
	p.Threshold = 4
	d := deploy(t, p)
	c, err := d.NewClient("gina", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ { // t-1 shares only
		if err := s.RequestShare(tctx, j); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Finish(tctx); !errors.Is(err, client.ErrTooFewShares) {
		t.Fatalf("expected ErrTooFewShares, got %v", err)
	}
}

func TestCrashRecoveryViaEscrow(t *testing.T) {
	// §8 failure-during-recovery: the device contacts all HSMs, then dies
	// before reconstructing. A replacement device holding the per-recovery
	// ephemeral key (restored from its nested backup) finishes from the
	// provider's escrow. The original ciphertext is already punctured, so
	// escrow is the only path.
	d := deploy(t, testParams(16))
	c, err := d.NewClient("henry", "123456")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("phone died mid-recovery")
	if err := c.Backup(tctx, msg); err != nil {
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
	// Device crashes here: session dropped, but the ephemeral keypair was
	// nested-backed-up (we hand it to the replacement directly; the nested
	// SafetyPin backup of this key is exercised in TestNestedKeyBackup).
	ephemeral := s.ReplyKey

	replacement, err := d.NewClient("henry", "123456")
	if err != nil {
		t.Fatal(err)
	}
	got, err := replacement.CompleteFromEscrow(tctx, ephemeral)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("escrow recovery returned wrong data")
	}
}

func TestNestedKeyBackup(t *testing.T) {
	// The ephemeral reply key itself rides through SafetyPin: back it up,
	// recover it, use it. (This is the §8 nesting, one level deep.)
	p := testParams(16)
	p.GuessLimit = 3
	d := deploy(t, p)
	c, err := d.NewClient("iris", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("main data")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	// Nested client protects the ephemeral secret under the same PIN.
	nested, err := d.NewClient("iris/recovery-key", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := nested.Backup(tctx, s.ReplyKey.SK.Bytes()); err != nil {
		t.Fatal(err)
	}
	for j := range s.Cluster() {
		if err := s.RequestShare(tctx, j); err != nil {
			t.Fatal(err)
		}
	}
	// Crash. Replacement device recovers the nested key first...
	nested2, err := d.NewClient("iris/recovery-key", "123456")
	if err != nil {
		t.Fatal(err)
	}
	skBytes, err := nested2.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(skBytes, s.ReplyKey.SK.Bytes()) {
		t.Fatal("nested recovery returned wrong key")
	}
	// ...then completes the interrupted main recovery from escrow.
	replacement, err := d.NewClient("iris", "123456")
	if err != nil {
		t.Fatal(err)
	}
	got, err := replacement.CompleteFromEscrow(tctx, s.ReplyKey)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "main data" {
		t.Fatal("wrong main data")
	}
}

func TestIncrementalBackups(t *testing.T) {
	p := testParams(16)
	d := deploy(t, p)
	c, err := d.NewClient("judy", "123456")
	if err != nil {
		t.Fatal(err)
	}
	master, err := c.EnableIncrementalBackups(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.IncrementalBackup(tctx, master, []byte("monday's delta")); err != nil {
		t.Fatal(err)
	}
	if err := c.IncrementalBackup(tctx, master, []byte("tuesday's delta")); err != nil {
		t.Fatal(err)
	}
	// Device lost: recover the master key via SafetyPin, then decrypt the
	// incremental blobs without any HSM interaction.
	c2, err := d.NewClient("judy", "123456")
	if err != nil {
		t.Fatal(err)
	}
	recovered, err := c2.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recovered, master) {
		t.Fatal("recovered master key mismatch")
	}
	delta, err := c2.FetchIncremental(tctx, recovered)
	if err != nil {
		t.Fatal(err)
	}
	if string(delta) != "tuesday's delta" {
		t.Fatalf("got %q", delta)
	}
}

func TestReplayAcrossUsersRejected(t *testing.T) {
	// Mallory (with provider collusion) replays Alice's share ciphertexts
	// under her own account: every HSM must refuse (username binding).
	d := deploy(t, testParams(16))
	alice, err := d.NewClient("alice", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := alice.Backup(tctx, []byte("alice data")); err != nil {
		t.Fatal(err)
	}
	blob, err := d.Provider.FetchCiphertext(tctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	// Mallory stores Alice's ciphertext under her own name and knows the
	// PIN (worst case).
	if err := d.Provider.StoreCiphertext(tctx, "mallory", blob); err != nil {
		t.Fatal(err)
	}
	mallory, err := d.NewClient("mallory", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mallory.Recover(tctx, ""); err == nil {
		t.Fatal("cross-user replay succeeded")
	}
}

func TestRecoveryWithoutLoggingRejected(t *testing.T) {
	// An HSM contacted without a logged attempt must refuse: build a valid
	// session, then tamper the log trace.
	d := deploy(t, testParams(16))
	c, err := d.NewClient("kate", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	// Sabotage: strip the log trace (simulating a skipped log step).
	req := s.BuildRequest(0)
	req.LogTrace = nil
	if _, err := d.Provider.RelayRecover(tctx, req); err == nil {
		t.Fatal("HSM served a recovery with no log trace")
	}
	// And a trace for the wrong commitment (provider lies about the log).
	req2 := s.BuildRequest(0)
	req2.CommitNonce = make([]byte, len(req2.CommitNonce))
	if _, err := d.Provider.RelayRecover(tctx, req2); err == nil {
		t.Fatal("HSM accepted a commitment that is not in the log")
	}
}

func TestKeyRotation(t *testing.T) {
	// Consume an HSM's puncture budget via recoveries, rotate, and verify
	// fresh backups work under the new keys.
	p := testParams(8)
	p.BFE = bfe.Params{M: 64, K: 8} // tiny budget: rotates quickly
	p.GuessLimit = 64
	d := deploy(t, p)

	// Each recovery punctures up to K=8 of the M=64 positions at every
	// cluster HSM; after 8 users the expected distinct-deletion count
	// (~42) is comfortably past the M/2 = 32 rotation point.
	for i := 0; i < 8; i++ {
		user := fmt.Sprintf("user-%d", i)
		c, err := d.NewClient(user, "123456")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Backup(tctx, []byte("data")); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Recover(tctx, ""); err != nil {
			t.Fatal(err)
		}
	}
	rotated, err := d.RotateSpentKeys()
	if err != nil {
		t.Fatal(err)
	}
	if rotated == 0 {
		t.Fatal("no HSM hit its rotation point despite tiny filters")
	}
	// Fresh client on the rotated fleet.
	c, err := d.NewClient("post-rotation", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("new-era data")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "new-era data" {
		t.Fatal("post-rotation recovery failed")
	}
}

func TestExternalLogAudit(t *testing.T) {
	d := deploy(t, testParams(8))
	c, err := d.NewClient("leo", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, ""); err != nil {
		t.Fatal(err)
	}
	// A third party replays the published log and checks the digest.
	if err := dlog.Replay(d.Provider.LogEntries(), d.Provider.LogDigest()); err != nil {
		t.Fatal(err)
	}
	// The log names the user: anyone can detect that a recovery for "leo"
	// was attempted (the §6 monitoring property).
	found := false
	for _, e := range d.Provider.LogEntries() {
		if strings.Contains(string(e.ID), "leo") {
			found = true
		}
	}
	if !found {
		t.Fatal("recovery attempt not visible in public log")
	}
}

func TestMeteredDeployment(t *testing.T) {
	p := testParams(8)
	p.Metered = true
	d := deploy(t, p)
	d.ResetMeters() // discard provisioning costs
	c, err := d.NewClient("mona", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, ""); err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for i := range d.HSMs {
		total += d.Meter(i).Snapshot()[meter.OpElGamalDecrypt]
	}
	if total == 0 {
		t.Fatal("no ElGamal decryptions metered during recovery")
	}
}

// TestBLSEndToEnd sets Params.Scheme explicitly, where every other test
// leaves it nil.
func TestBLSEndToEnd(t *testing.T) {
	p := testParams(4)
	p.ClusterSize = 4
	p.Threshold = 2
	p.Scheme = aggsig.BLS()
	d := deploy(t, p)
	c, err := d.NewClient("nina", "123456")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Backup(tctx, []byte("bls-sealed")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "bls-sealed" {
		t.Fatal("BLS deployment recovery failed")
	}
}

func TestParamsValidation(t *testing.T) {
	if _, err := NewDeployment(Params{}); err == nil {
		t.Fatal("zero params accepted")
	}
	p := testParams(8)
	p.ClusterSize = 99
	if _, err := NewDeployment(p); err == nil {
		t.Fatal("cluster larger than fleet accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	d := deploy(t, Params{NumHSMs: 8})
	got := d.Params()
	if got.ClusterSize != 8 || got.Threshold != 4 || got.GuessLimit != 1 {
		t.Fatalf("defaults wrong: %+v", got)
	}
	if got.LogChunks != 8 {
		t.Fatalf("LogChunks default wrong: %d", got.LogChunks)
	}
}
