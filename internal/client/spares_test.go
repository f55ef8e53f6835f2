package client

// spares_test.go pins how a session spends its replies: reconstruction reads
// a threshold of shares, so a threshold of replies is opened and the rest
// stay sealed — live or replayed from escrow — until a reconstruction fails.

import (
	"bytes"
	"context"
	"crypto/rand"
	"testing"
	"time"

	"safetypin/internal/elgamal"
	"safetypin/internal/protocol"
	"safetypin/internal/shamir"
)

// counts returns how many replies s has opened, how many it holds sealed,
// and how many cluster positions those cover.
func counts(s *Session) (opened, spares, held int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shares), len(s.spares), len(s.held)
}

// TestSparesStaySealed: a session that heard from its whole cluster has
// opened t replies and keeps n − t sealed, and finishes; a session resumed
// from that escrow ends up the same way and asks no HSM for anything.
func TestSparesStaySealed(t *testing.T) {
	r := newRig(t, 16) // cluster 8, threshold 4
	n, th := r.params.ClusterSize(), r.params.Threshold()
	c := r.client(t, "sparing", "123456")
	msg := []byte("opened once each")
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
	if errs := s.RequestAllShares(tctx); len(errs) > 0 {
		t.Fatalf("fan-out: %v", errs)
	}
	if opened, spares, held := counts(s.Session); opened != th || spares != n-th || held != n {
		t.Fatalf("live session: %d opened, %d spares, %d positions; want %d, %d, %d", opened, spares, held, th, n-th, n)
	}

	// The crashed device's replacement, over a fleet that would hang.
	gate := &relayGate{Provider: r.prov, delayFor: func(int) time.Duration { return -1 }}
	c2, err := New("sparing", "123456", r.params, r.fleet, gate)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.ResumeRecovery(tctx, token)
	if err != nil {
		t.Fatal(err)
	}
	if opened, spares, held := counts(s2.Session); opened != th || spares != n-th || held != n {
		t.Fatalf("resumed session: %d opened, %d spares, %d positions; want %d, %d, %d", opened, spares, held, th, n-th, n)
	}
	if errs := s2.RequestAllShares(tctx); len(errs) > 0 || gate.inflight.Load() != 0 {
		t.Fatalf("resumed session went back to the fleet: %v", errs)
	}
	for name, sess := range map[string]*RecoverySession{"live": s, "resumed": s2} {
		if got, err := sess.Finish(tctx); err != nil || !bytes.Equal(got, msg) {
			t.Fatalf("%s session: Finish = %q, %v", name, got, err)
		}
	}
}

// forgingProvider answers position 0 itself: a reply sealed correctly to the
// session's key that carries a share off the polynomial — what a faulty HSM
// would send.
type forgingProvider struct {
	Provider
}

func (f forgingProvider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	reply, err := f.Provider.RelayRecover(ctx, req)
	if err != nil || req.SharePos != 0 {
		return reply, err
	}
	bogus := make([]byte, shamir.ShareSize)
	bogus[3], bogus[len(bogus)-1] = 1, 7 // X = 1, Y = 7
	box, err := elgamal.Encrypt(req.ReplyPK, bogus, protocol.ReplyAD(req.User, req.Salt, req.SharePos), rand.Reader)
	if err != nil {
		return nil, err
	}
	reply.Box = box.Bytes()
	return reply, nil
}

// TestFinishOpensSparesWhenNeeded: one of the t opened shares is wrong, so
// the first reconstruction fails; the sealed spares are then opened and
// carry the recovery.
func TestFinishOpensSparesWhenNeeded(t *testing.T) {
	r := newRig(t, 16) // cluster 8, threshold 4
	c, err := New("unlucky", "123456", r.params, r.fleet, forgingProvider{r.prov})
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("saved by the spares")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}
	s, err := c.Begin(tctx, "")
	if err != nil {
		t.Fatal(err)
	}
	for j := range s.Cluster() { // in order, so the forged share is among the opened
		if err := s.RequestShare(tctx, j); err != nil {
			t.Fatal(err)
		}
	}
	if opened, spares, _ := counts(s); opened != r.params.Threshold() || spares == 0 {
		t.Fatalf("%d opened, %d spares", opened, spares)
	}
	if got, err := s.Finish(tctx); err != nil || !bytes.Equal(got, msg) {
		t.Fatalf("Finish = %q, %v", got, err)
	}
}
