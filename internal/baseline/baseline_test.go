package baseline

import (
	"bytes"
	"crypto/rand"
	"errors"
	"testing"

	"safetypin/internal/meter"
)

func cluster(t testing.TB, limit int) *Cluster {
	t.Helper()
	c, err := NewCluster(ClusterSize, limit, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestBackupRecover(t *testing.T) {
	c := cluster(t, 10)
	key := []byte("0123456789abcdef")
	ct, err := Backup(c.PublicKey(), "alice", "123456", key, rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Recover("alice", "123456", ct)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, key) {
		t.Fatal("wrong key")
	}
}

func TestWrongPINRejected(t *testing.T) {
	c := cluster(t, 10)
	ct, err := Backup(c.PublicKey(), "alice", "123456", []byte("k"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover("alice", "654321", ct); !errors.Is(err, ErrWrongPIN) {
		t.Fatalf("want ErrWrongPIN, got %v", err)
	}
}

func TestAttemptLimitPerHSM(t *testing.T) {
	c := cluster(t, 3)
	ct, err := Backup(c.PublicKey(), "alice", "123456", []byte("k"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	h := c.HSMs()[0]
	for i := 0; i < 3; i++ {
		if _, err := h.Recover("alice", "000000", ct); !errors.Is(err, ErrWrongPIN) {
			t.Fatalf("attempt %d: %v", i, err)
		}
	}
	// Budget spent: even the correct PIN is refused at this HSM.
	if _, err := h.Recover("alice", "123456", ct); !errors.Is(err, ErrAttemptsExhausted) {
		t.Fatalf("want ErrAttemptsExhausted, got %v", err)
	}
	// The structural weakness vs SafetyPin: the guess budget is per-HSM,
	// so the other cluster members still answer — 5× the nominal budget.
	if _, err := c.HSMs()[1].Recover("alice", "123456", ct); err != nil {
		t.Fatalf("second HSM should still serve: %v", err)
	}
}

func TestAnySingleHSMSuffices(t *testing.T) {
	c := cluster(t, 10)
	ct, err := Backup(c.PublicKey(), "bob", "111111", []byte("key"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	for i, h := range c.HSMs() {
		got, err := h.Recover("bob", "111111", ct)
		if err != nil || string(got) != "key" {
			t.Fatalf("HSM %d failed solo recovery: %v", i, err)
		}
	}
}

func TestUserBinding(t *testing.T) {
	c := cluster(t, 10)
	ct, err := Backup(c.PublicKey(), "alice", "123456", []byte("k"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover("mallory", "123456", ct); err == nil {
		t.Fatal("cross-user replay succeeded in baseline")
	}
}

func TestMetering(t *testing.T) {
	ms := []*meter.Meter{meter.New()}
	c, err := NewCluster(1, 10, rand.Reader, ms)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := Backup(c.PublicKey(), "alice", "123456", []byte("k"), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Recover("alice", "123456", ct); err != nil {
		t.Fatal(err)
	}
	if ms[0].Snapshot()[meter.OpElGamalDecrypt] != 1 {
		t.Fatal("baseline recovery should cost exactly one ElGamal decryption")
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(0, 1, rand.Reader, nil); err == nil {
		t.Fatal("empty cluster accepted")
	}
}

func BenchmarkBaselineRecover(b *testing.B) {
	c, err := NewCluster(ClusterSize, 1<<30, rand.Reader, nil)
	if err != nil {
		b.Fatal(err)
	}
	ct, err := Backup(c.PublicKey(), "alice", "123456", []byte("0123456789abcdef"), rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Recover("alice", "123456", ct); err != nil {
			b.Fatal(err)
		}
	}
}

// HSMs returns the cluster members.
func (c *Cluster) HSMs() []*HSM { return c.hsms }
