package bfe

import (
	"crypto/rand"
	"reflect"
	"runtime"
	"testing"

	"safetypin/internal/ecgroup"
	"safetypin/internal/securestore"
)

// footprint is what one hosted BFE key leaves on the heap.
type footprint struct {
	objects      int64 // heap objects the key pair and its store retain
	pkBytes      int64 // bytes the public key alone retains
	storeBytes   int64 // bytes the private key and its store retain
	storeNodes   int   // blocks the store holds
	pkPos, skPos float64
}

// heap returns the live heap objects and bytes after two full
// collections (the second empties the pools' victim caches).
func heap() (objects, bytes int64) {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapObjects), int64(ms.HeapAlloc)
}

// measureKey builds an M-position key on a fresh MemOracle and measures
// what it retains: the whole pair, then the private side alone once the
// public key is dropped.
func measureKey(t testing.TB, m int) footprint {
	t.Helper()
	o0, b0 := heap()
	oracle := securestore.NewMemOracle()
	sk, pk, err := KeyGenBatch(Params{M: m, K: 4}, oracle, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	o1, b1 := heap()
	nodes := len(oracle.Blocks())
	runtime.KeepAlive(pk)
	pk = nil
	_, b2 := heap()
	runtime.KeepAlive(sk)
	runtime.KeepAlive(oracle)
	f := footprint{objects: o1 - o0, pkBytes: b1 - b2, storeBytes: b2 - b0, storeNodes: nodes}
	f.pkPos, f.skPos = float64(f.pkBytes)/float64(m), float64(f.storeBytes)/float64(m)
	return f
}

// TestHostedKeyFootprint guards the layout of the fleet's key material: an
// M = 2048 BFE key on a MemOracle retains about a dozen heap objects,
// however many positions it has (one slice of packed points, one arena,
// one paged index), not one or more per position or per tree node; and the
// types it is built from hold no pointer the collector would follow
// element by element.
func TestHostedKeyFootprint(t *testing.T) {
	small, large := measureKey(t, 256), measureKey(t, 2048)
	t.Logf("M=256: %d objects, pk %d B, store %d B over %d nodes", small.objects, small.pkBytes, small.storeBytes, small.storeNodes)
	t.Logf("M=2048: %d objects, pk %d B (%.1f B/position), store %d B (%.1f B/position) over %d nodes",
		large.objects, large.pkBytes, large.pkPos, large.storeBytes, large.skPos, large.storeNodes)
	// Before the packed layout an M = 2048 key retained ≈ 12,300 objects:
	// four per point and one per tree node.
	if large.objects > 32 {
		t.Errorf("an M=2048 key retains %d heap objects, want at most 32", large.objects)
	}
	if grown := large.objects - small.objects; grown > 8 {
		t.Errorf("8× the positions retain %d more heap objects (%d against %d)", grown, large.objects, small.objects)
	}
	for _, typ := range []reflect.Type{
		reflect.TypeOf(ecgroup.Point{}),
		reflect.TypeOf(PublicKey{}),
		reflect.TypeOf(securestore.MemOracle{}),
	} {
		if paths := pointerPaths(typ, typ.String()); len(paths) > 0 {
			t.Errorf("%s holds pointers the collector scans: %v", typ, paths)
		}
	}
}

// pointerPaths lists the places in t where the collector would follow a
// pointer per element. A slice or map counts as the one object it points
// to, so its own header is allowed but not pointers among its elements.
func pointerPaths(t reflect.Type, path string) []string {
	switch t.Kind() {
	case reflect.Struct:
		var out []string
		for i := 0; i < t.NumField(); i++ {
			out = append(out, pointerPaths(t.Field(i).Type, path+"."+t.Field(i).Name)...)
		}
		return out
	case reflect.Array:
		return pointerPaths(t.Elem(), path+"[]")
	case reflect.Slice:
		return pointerPaths(t.Elem(), path+"[]")
	case reflect.Map:
		return append(pointerPaths(t.Key(), path+"[key]"), pointerPaths(t.Elem(), path+"[val]")...)
	case reflect.Pointer, reflect.Interface, reflect.Chan, reflect.Func, reflect.String, reflect.UnsafePointer:
		return []string{path + " (" + t.Kind().String() + ")"}
	default:
		return nil
	}
}

// BenchmarkHostedKeyFootprint reports the heap bytes an M = 2048 key
// retains per filter position: the client-side public key and the
// provider-hosted store with the HSM's handle on it.
func BenchmarkHostedKeyFootprint(b *testing.B) {
	var f footprint
	for i := 0; i < b.N; i++ {
		f = measureKey(b, 2048)
	}
	b.ReportMetric(f.pkPos, "pk-B/position")
	b.ReportMetric(f.skPos, "store-B/position")
	b.ReportMetric(float64(f.objects), "objects/key")
}
