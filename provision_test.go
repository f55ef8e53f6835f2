package safetypin

import (
	"bytes"
	"errors"
	"testing"

	"safetypin/internal/provider"
	"safetypin/internal/storage"
)

// TestParallelProvisioningDeterministic checks that the worker-pool
// provisioning path produces the deterministic fleet shape: HSM i sits at
// slot i, the signing roster is in index order, and recovery works end to
// end. Run under -race this also exercises the pool for data races on the
// shared roster/pubs slots.
func TestParallelProvisioningDeterministic(t *testing.T) {
	d := deploy(t, testParams(16))
	for i, h := range d.HSMs {
		if h.ID() != i {
			t.Fatalf("HSM at slot %d has id %d", i, h.ID())
		}
		if d.fleet.Key(i) != h.BFEPublicKey() {
			t.Fatalf("fleet pk %d does not match HSM %d", i, i)
		}
	}

	c, err := d.NewClient("pool-user", "314159")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("provisioned in parallel")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatalf("backup: %v", err)
	}
	got, err := c.Recover(tctx, "314159")
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recovered %q, want %q", got, msg)
	}
}

// TestReopenProviderParallelSwap exercises the pooled SwapOracle/Register
// fan-out in ReopenProvider: after reopening, each HSM must still decrypt
// through its own (index-matched) oracle.
func TestReopenProviderParallelSwap(t *testing.T) {
	mem := storage.NewMem()
	d := deploy(t, durableParams(16, mem))

	c, err := d.NewClient("reopen-user", "271828")
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("survives a provider restart")
	if err := c.Backup(tctx, msg); err != nil {
		t.Fatal(err)
	}

	if err := d.ReopenProvider(provider.EngineConfig{Storage: mem, SnapshotEvery: -1}); err != nil {
		t.Fatalf("reopen: %v", err)
	}

	got, err := c.Recover(tctx, "271828")
	if err != nil {
		t.Fatalf("recover after reopen: %v", err)
	}
	if !bytes.Equal(got, msg) {
		t.Fatalf("recovered %q, want %q", got, msg)
	}
}

// TestProvisionPoolErrorPropagation checks that a mid-fleet provisioning
// failure surfaces as an error rather than a partially constructed
// deployment, at every pool width.
func TestProvisionPoolErrorPropagation(t *testing.T) {
	sentinel := errors.New("boom at index 7")
	for _, workers := range []int{1, 3, 8} {
		err := provisionPool(16, workers, func(i int) error {
			if i == 7 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
	}
	if err := provisionPool(0, 4, func(int) error { return nil }); err != nil {
		t.Fatalf("empty pool: %v", err)
	}
}
