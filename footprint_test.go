package safetypin

import (
	"runtime"
	"testing"

	"safetypin/internal/bfe"
)

// TestDeploymentFootprint builds a deployment of the benchmark's
// recover_batched shape (N = 100 HSMs, M = 2048, K = 4) and measures what
// it retains on the heap. Each HSM's BFE key is one slice of packed
// points on the client side and one arena and paged index at the
// provider, so the whole deployment stays under 10,000 heap objects; one
// heap object per point coordinate and per tree node made it ≈ 1.2 M.
func TestDeploymentFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 100 HSMs with 2,048-position keys")
	}
	objects, bytes := liveHeap()
	d, err := NewDeployment(Params{NumHSMs: 100, ClusterSize: 40, Threshold: 20, BFE: bfe.Params{M: 2048, K: 4}})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	afterObjects, afterBytes := liveHeap()
	runtime.KeepAlive(d)
	objects, bytes = afterObjects-objects, afterBytes-bytes
	t.Logf("N=100, M=2048: %d heap objects, %.1f MB live", objects, float64(bytes)/(1<<20))
	if objects > 10000 {
		t.Errorf("the deployment retains %d heap objects, want at most 10,000", objects)
	}
}

// liveHeap returns the live heap objects and bytes after two full
// collections (the second empties the pools' victim caches).
func liveHeap() (objects, bytes int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapObjects), int64(ms.HeapAlloc)
}
