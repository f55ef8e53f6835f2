package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/lhe"
)

var tctx = context.Background()

// testFleetConfig is a small, fast fleet for TCP tests. The cluster is half
// the fleet: with N == n location hiding degenerates (any PIN selects the
// same set), which the paper rules out by requiring N ≫ n.
func testFleetConfig(n int) FleetConfig {
	return FleetConfig{
		NumHSMs:       n,
		ClusterSize:   n / 2,
		Threshold:     n / 4,
		BFEM:          128,
		BFEK:          4,
		LogChunks:     n,
		AuditsPerHSM:  n,
		MinSignerFrac: 0.5,
		GuessLimit:    4,
		SchemeName:    "bls12381-multisig",
		HashModeName:  "rfc9380",
	}
}

// startFleet boots a provider daemon and n HSM daemons over loopback TCP
// (both wire versions served), returning the provider address and a
// shutdown func.
func startFleet(t testing.TB, n int) (string, func()) {
	return startFleetCfg(t, testFleetConfig(n))
}

func startFleetCfg(t testing.TB, cfg FleetConfig) (string, func()) {
	t.Helper()
	pd, err := NewProviderDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var listeners []net.Listener
	pln, paddr, err := Serve("Provider", pd.Service(), pd.WireRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	listeners = append(listeners, pln)

	for id := 0; id < cfg.NumHSMs; id++ {
		// Provision against the provider, then serve and register with the
		// live listen address (same order as cmd/hsmd).
		hd, reg, err := ProvisionHSM(paddr, id, "")
		if err != nil {
			t.Fatal(err)
		}
		hln, haddr, err := Serve("HSM", hd.Service(), hd.WireRegistry(), "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners = append(listeners, hln)
		reg.Addr = haddr
		rp, err := DialProvider(paddr)
		if err != nil {
			t.Fatal(err)
		}
		if err := rp.RegisterHSM(tctx, reg); err != nil {
			t.Fatal(err)
		}
		rp.Close()
	}
	rp, err := DialProvider(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.InstallRosters(tctx); err != nil {
		t.Fatal(err)
	}
	return paddr, func() {
		pd.Close()
		for _, ln := range listeners {
			ln.Close()
		}
	}
}

// newRemoteClient builds a SafetyPin client over the TCP provider.
func newRemoteClient(t testing.TB, paddr, user, pin string) (*client.Client, *RemoteProvider) {
	t.Helper()
	rp, err := DialProvider(paddr)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := rp.Config(tctx)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := rp.Fleet(tctx)
	if err != nil {
		t.Fatal(err)
	}
	params, err := lhe.NewParams(cfg.NumHSMs, cfg.ClusterSize, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	c, err := client.New(user, pin, params, fleet, rp)
	if err != nil {
		t.Fatal(err)
	}
	return c, rp
}

func TestTCPBackupRecover(t *testing.T) {
	paddr, shutdown := startFleet(t, 4)
	defer shutdown()
	c, rp := newRemoteClient(t, paddr, "alice", "123456")
	defer rp.Close()
	msg := []byte("data over real sockets")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("TCP round-trip mismatch")
	}
}

func TestTCPConcurrentRecoveries(t *testing.T) {
	// Concurrent clients over real sockets: their log insertions batch
	// through the provider daemon's epoch scheduler (each WaitForCommit
	// call runs in its own handler goroutine) and their share fan-outs run
	// in parallel against the HSM daemons.
	paddr, shutdown := startFleet(t, 4)
	defer shutdown()
	const users = 3
	type device struct {
		c  *client.Client
		rp *RemoteProvider
	}
	devices := make([]device, users)
	for i := range devices {
		c, rp := newRemoteClient(t, paddr, fmt.Sprintf("tcp-user-%d", i), "123456")
		devices[i] = device{c, rp}
		defer rp.Close()
		if err := c.Backup(tctx, []byte(fmt.Sprintf("image-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	got := make([][]byte, users)
	errs := make([]error, users)
	for i := range devices {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = devices[i].c.Recover(tctx, "")
		}(i)
	}
	wg.Wait()
	for i := range devices {
		if errs[i] != nil {
			t.Fatalf("tcp-user-%d: %v", i, errs[i])
		}
		if want := fmt.Sprintf("image-%d", i); string(got[i]) != want {
			t.Fatalf("tcp-user-%d: got %q want %q", i, got[i], want)
		}
	}
}

func TestTCPWrongPINFails(t *testing.T) {
	paddr, shutdown := startFleet(t, 8)
	defer shutdown()
	c, rp := newRemoteClient(t, paddr, "bob", "123456")
	defer rp.Close()
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	// With a small test fleet the wrong-PIN cluster can coincide with the
	// real one at enough positions to reconstruct (the paper's bound
	// 3N/(n|P|) is vacuous at toy N). Skip the rare overlapping draws so
	// the test is deterministic about the property it checks.
	if clusterOverlap(t, rp, c, "123456", "000000") >= 2 {
		t.Skip("wrong-PIN cluster coincidentally overlaps at toy fleet size")
	}
	if _, err := c.Recover(tctx, "000000"); err == nil {
		t.Fatal("wrong PIN succeeded over TCP")
	}
}

// clusterOverlap counts positions where the clusters selected by two PINs
// agree for the user's current ciphertext.
func clusterOverlap(t *testing.T, rp *RemoteProvider, c *client.Client, pinA, pinB string) int {
	t.Helper()
	blob, err := rp.FetchCiphertext(tctx, c.User())
	if err != nil {
		t.Fatal(err)
	}
	ct, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := rp.Config(tctx)
	if err != nil {
		t.Fatal(err)
	}
	params, err := lhe.NewParams(cfg.NumHSMs, cfg.ClusterSize, cfg.Threshold)
	if err != nil {
		t.Fatal(err)
	}
	a, err := params.Select(ct.Salt, pinA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := params.Select(ct.Salt, pinB)
	if err != nil {
		t.Fatal(err)
	}
	overlap := 0
	for i := range a {
		if a[i] == b[i] {
			overlap++
		}
	}
	return overlap
}

func TestTCPExternalAudit(t *testing.T) {
	paddr, shutdown := startFleet(t, 4)
	defer shutdown()
	c, rp := newRemoteClient(t, paddr, "carol", "123456")
	defer rp.Close()
	if err := c.Backup(tctx, []byte("m")); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover(tctx, ""); err != nil {
		t.Fatal(err)
	}
	entries, err := rp.LogEntries(tctx)
	if err != nil {
		t.Fatal(err)
	}
	digest, err := rp.LogDigest(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := dlog.Replay(entries, digest); err != nil {
		t.Fatal(err)
	}
}

func TestTCPStatusAndConfig(t *testing.T) {
	paddr, shutdown := startFleet(t, 2)
	defer shutdown()
	rp, err := DialProvider(paddr)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	st, err := rp.Status(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Expected != 2 || len(st.Registered) != 2 || !st.RosterSent {
		t.Fatalf("bad status: %+v", st)
	}
	cfg, err := rp.Config(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumHSMs != 2 {
		t.Fatal("bad config echo")
	}
}

func TestTCPResumeRecovery(t *testing.T) {
	// A session token minted over TCP resumes over a *different*
	// connection: the crashed device's escrowed shares replay and the
	// resumed session completes without reserving a second attempt.
	paddr, shutdown := startFleet(t, 8)
	defer shutdown()
	c, rp := newRemoteClient(t, paddr, "dora", "123456")
	defer rp.Close()
	msg := []byte("resumable across sockets")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	s, err := c.BeginRecovery(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	token, err := s.SessionToken()
	if err != nil {
		t.Fatal(err)
	}
	// Collect a partial set of shares, then "crash" (drop the connection).
	if err := s.RequestShare(tctx, 0); err != nil {
		t.Fatal(err)
	}
	attemptsBefore, err := rp.AttemptCount(tctx, "dora")
	if err != nil {
		t.Fatal(err)
	}

	c2, rp2 := newRemoteClient(t, paddr, "dora", "123456")
	defer rp2.Close()
	s2, err := c2.ResumeRecovery(tctx, token)
	if err != nil {
		t.Fatal(err)
	}
	if s2.SharesHeld() < 1 {
		t.Fatal("escrowed share not replayed on resume")
	}
	s2.RequestAllShares(tctx)
	got, err := s2.Finish(tctx)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatal("resumed recovery returned wrong data")
	}
	attemptsAfter, err := rp2.AttemptCount(tctx, "dora")
	if err != nil {
		t.Fatal(err)
	}
	if attemptsAfter != attemptsBefore {
		t.Fatalf("resume consumed an attempt: %d → %d", attemptsBefore, attemptsAfter)
	}
}

// TestTCPHashModeNegotiation boots a BLS fleet under the one supported
// hash mode and runs a full backup/recovery; the epoch only commits if
// every HSM daemon signs and verifies with the provider's hash. The
// retired "legacy" value and the absent field a pre-RFC provider serves
// are refused, both by the provider daemon and by an HSM provisioning
// against a provider that serves them.
func TestTCPHashModeNegotiation(t *testing.T) {
	t.Run("rfc9380", func(t *testing.T) {
		cfg := testFleetConfig(4)
		paddr, shutdown := startFleetCfg(t, cfg)
		defer shutdown()
		c, rp := newRemoteClient(t, paddr, "hana", "2468")
		defer rp.Close()
		msg := []byte("negotiated-hash backup")
		if err := c.Backup(tctx, msg); err != nil {
			t.Fatal(err)
		}
		got, err := c.Recover(tctx, "")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatal("round-trip mismatch")
		}
	})
	for _, tc := range []struct{ name, hm string }{{"legacy", "legacy"}, {"absent", ""}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testFleetConfig(4)
			cfg.HashModeName = tc.hm
			if _, err := NewProviderDaemon(cfg); err == nil || !strings.Contains(err.Error(), "docs/MIGRATION.md") {
				t.Fatalf("provider daemon with hash mode %q: err = %v", tc.hm, err)
			}
			// An old provider serving the value: the HSM refuses to join.
			cfg.HashModeName = "rfc9380"
			pd, err := NewProviderDaemon(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer pd.Close()
			pd.cfg.HashModeName = tc.hm
			ln, paddr, err := Serve("Provider", pd.Service(), pd.WireRegistry(), "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			if _, _, err := ProvisionHSM(paddr, 0, ""); err == nil || !strings.Contains(err.Error(), "docs/MIGRATION.md") {
				t.Fatalf("HSM provisioned against a provider serving hash mode %q: err = %v", tc.hm, err)
			}
		})
	}
}

// TestSchemeByName pins the scheme and hash-mode names a fleet config may
// carry (checkScheme): BLS under its name or the absent field, and only
// with the rfc9380 hash. The retired "ecdsa-concat" and any other name
// are refused with a pointer to the migration notes.
func TestSchemeByName(t *testing.T) {
	for _, name := range []string{"bls12381-multisig", ""} {
		if err := checkScheme(name, "rfc9380"); err != nil {
			t.Fatalf("scheme %q: %v", name, err)
		}
	}
	for _, name := range []string{"ecdsa-concat", "nonsense"} {
		if err := checkScheme(name, "rfc9380"); err == nil || !strings.Contains(err.Error(), "docs/MIGRATION.md") {
			t.Fatalf("scheme %q: err = %v", name, err)
		}
	}
	// Only rfc9380 is accepted: the absent field (a pre-RFC provider) and
	// "legacy" name the retired hash.
	for _, hm := range []string{"", "legacy", "nonsense"} {
		if err := checkScheme("bls12381-multisig", hm); err == nil {
			t.Fatalf("hash mode %q accepted", hm)
		}
	}
}

// connCounter is a TCP proxy in front of a provider that counts the
// client connections still open through it.
type connCounter struct {
	ln   net.Listener
	open atomic.Int64
}

func newConnCounter(t *testing.T, target string) *connCounter {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cc := &connCounter{ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", target)
			if err != nil {
				c.Close()
				continue
			}
			cc.open.Add(1)
			go func() {
				io.Copy(up, c)
				up.Close()
			}()
			go func() {
				io.Copy(c, up)
				c.Close()
				cc.open.Add(-1)
			}()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return cc
}

// TestProvisionHSMClosesConfigConn provisions k HSMs through a counting
// proxy: afterwards exactly k provider connections stay open, one oracle
// connection per HSM, and the connection that fetched the config is gone.
func TestProvisionHSMClosesConfigConn(t *testing.T) {
	const k = 4
	pd, err := NewProviderDaemon(testFleetConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	defer pd.Close()
	ln, paddr, err := Serve("Provider", pd.Service(), pd.WireRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	proxy := newConnCounter(t, paddr)
	for id := 0; id < k; id++ {
		if _, _, err := ProvisionHSM(proxy.ln.Addr().String(), id, ""); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for proxy.open.Load() != k && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := proxy.open.Load(); n != k {
		t.Fatalf("%d provider connections open after provisioning %d HSMs, want %d", n, k, k)
	}
}
