package securestore

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	"testing"

	"safetypin/internal/aead"
	"safetypin/internal/meter"
)

func blocks(n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("%0*d", size, i))
	}
	return out
}

func setup(t testing.TB, n int) (*Store, *MemOracle) {
	t.Helper()
	o := NewMemOracle()
	s, err := Setup(o, blocks(n, 16), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

func TestReadAll(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 7, 8, 9, 31, 64} {
		s, _ := setup(t, n)
		want := blocks(n, 16)
		for i := 0; i < n; i++ {
			got, err := s.Read(i)
			if err != nil {
				t.Fatalf("n=%d Read(%d): %v", n, i, err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Fatalf("n=%d block %d mismatch", n, i)
			}
		}
	}
}

func TestIndexValidation(t *testing.T) {
	s, _ := setup(t, 8)
	if _, err := s.Read(-1); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := s.Read(8); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if err := s.Delete(100); err == nil {
		t.Fatal("out-of-range delete accepted")
	}
}

func TestDeleteMakesUnreadable(t *testing.T) {
	s, _ := setup(t, 16)
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(5); !errors.Is(err, ErrDeleted) {
		t.Fatalf("expected ErrDeleted, got %v", err)
	}
	// all other blocks still readable
	for i := 0; i < 16; i++ {
		if i == 5 {
			continue
		}
		if _, err := s.Read(i); err != nil {
			t.Fatalf("block %d unreadable after deleting 5: %v", i, err)
		}
	}
}

func TestDeleteIdempotent(t *testing.T) {
	s, _ := setup(t, 8)
	if err := s.Delete(3); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(3); err != nil {
		t.Fatalf("second delete errored: %v", err)
	}
}

func TestDeleteAllBlocks(t *testing.T) {
	s, _ := setup(t, 8)
	for i := 0; i < 8; i++ {
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		if _, err := s.Read(i); !errors.Is(err, ErrDeleted) {
			t.Fatalf("block %d readable after delete", i)
		}
	}
}

// spyOracle is the provider as the tests need it: it counts exchanges, keeps
// every version of every block it was ever handed (the state-capture
// attacker's view), and can doctor replies or fail writes on demand.
type spyOracle struct {
	*MemOracle
	gets, puts int
	history    map[uint64][][]byte
	tamper     func(addrs []uint64, blocks [][]byte) [][]byte
	putErr     error
}

func newSpy() *spyOracle {
	return &spyOracle{MemOracle: NewMemOracle(), history: make(map[uint64][][]byte)}
}

func (o *spyOracle) GetMany(addrs []uint64) ([][]byte, error) {
	o.gets++
	blocks, err := o.MemOracle.GetMany(addrs)
	if err == nil && o.tamper != nil {
		blocks = o.tamper(addrs, blocks)
	}
	return blocks, err
}

func (o *spyOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	o.puts++
	if o.putErr != nil {
		return o.putErr
	}
	for i, addr := range addrs {
		o.history[addr] = append(o.history[addr], append([]byte(nil), blocks[i]...))
	}
	return o.MemOracle.PutMany(addrs, blocks)
}

func setupSpy(t testing.TB, n int) (*Store, *spyOracle) {
	t.Helper()
	o := newSpy()
	s, err := Setup(o, blocks(n, 16), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	return s, o
}

// attacker returns a store with s's public geometry over oracle o, keyed
// with a root key the attacker captured.
func attacker(s *Store, o Oracle, rootKey []byte) *Store {
	a := *s
	a.oracle, a.rootKey = o, rootKey
	return &a
}

// openEverything is the state-capture attacker at full strength: holding
// key for node addr and every version of every block the provider ever
// stored, it opens whatever opens and follows every child key it finds.
// It returns the leaf addresses it could read.
func openEverything(history map[uint64][][]byte, firstLeaf, addr uint64, key []byte, opened map[uint64]bool) {
	if isDeleted(key) {
		return
	}
	for _, box := range history[addr] {
		pt, err := aead.Open(key, box, nodeAD(addr))
		if err != nil {
			continue
		}
		if addr >= firstLeaf {
			opened[addr] = true
			continue
		}
		openEverything(history, firstLeaf, 2*addr, pt[:aead.KeySize], opened)
		openEverything(history, firstLeaf, 2*addr+1, pt[aead.KeySize:], opened)
	}
}

func TestSecureDeletionAgainstStateCapture(t *testing.T) {
	// The core forward-secrecy property: an attacker who records every
	// ciphertext the provider ever stored *and* captures the HSM root key
	// after a deletion cannot decrypt the deleted blocks — whether they
	// went one Delete at a time or in one DeleteMany.
	for name, del := range map[string]func(s *Store, idx []int) error{
		"Delete": func(s *Store, idx []int) error {
			for _, i := range idx {
				if err := s.Delete(i); err != nil {
					return err
				}
			}
			return nil
		},
		"DeleteMany": func(s *Store, idx []int) error {
			n, err := s.DeleteMany(idx)
			if err == nil && n != len(idx) {
				err = fmt.Errorf("deleted %d of %d", n, len(idx))
			}
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, o := setupSpy(t, 16)
			gone := []int{7, 6, 12, 0}
			// Attacker snapshots all provider-side ciphertexts before deletion.
			preDelete := &MemOracle{blocks: o.Blocks()}
			oldRoot := s.RootKey()
			if err := del(s, gone); err != nil {
				t.Fatal(err)
			}
			capturedRoot := s.RootKey() // post-deletion HSM compromise
			if bytes.Equal(capturedRoot, oldRoot) {
				t.Fatal("the old root key survived the deletion inside the Store")
			}

			// Attack 1: use the captured root key on the current store.
			// Attack 2: use it on the pre-deletion snapshot (rollback): the
			// new root key must not decrypt old ciphertexts.
			for _, i := range gone {
				if _, err := attacker(s, o, capturedRoot).Read(i); !errors.Is(err, ErrDeleted) {
					t.Fatalf("attacker read deleted block %d from live store: %v", i, err)
				}
				if _, err := attacker(s, preDelete, capturedRoot).Read(i); err == nil {
					t.Fatalf("rollback attack on block %d succeeded: old ciphertexts decrypted under new root key", i)
				}
			}
			// Attack 3: every version of every block against the captured
			// key. It must open exactly the surviving leaves.
			opened := make(map[uint64]bool)
			openEverything(o.history, s.leafAddr(0), 1, capturedRoot, opened)
			for i := 0; i < 16; i++ {
				dead := false
				for _, g := range gone {
					dead = dead || g == i
				}
				if opened[s.leafAddr(i)] == dead {
					t.Fatalf("block %d: deleted=%v but attacker opened=%v", i, dead, opened[s.leafAddr(i)])
				}
			}
		})
	}
}

// TestDeleteManyRekeysUnionOnce: every interior node on the union of the
// deleted leaves' paths is re-sealed under a fresh key, in one write, and
// no node off the union is touched.
func TestDeleteManyRekeysUnionOnce(t *testing.T) {
	s, o := setupSpy(t, 256)
	idx := []int{3, 77, 78, 200}
	union := make(map[uint64]bool)
	for _, i := range idx {
		for a := s.leafAddr(i) >> 1; a >= 1; a >>= 1 {
			union[a] = true
		}
	}
	before := o.Blocks()
	oldKeys := nodeKeys(t, s, o.MemOracle, idx)
	if n, err := s.DeleteMany(idx); err != nil || n != len(idx) {
		t.Fatalf("DeleteMany = %d, %v", n, err)
	}
	after := o.Blocks()
	newKeys := nodeKeys(t, s, o.MemOracle, idx)
	for addr := range before {
		changed := !bytes.Equal(before[addr], after[addr])
		if changed != union[addr] {
			t.Fatalf("node %d: on union=%v, rewritten=%v", addr, union[addr], changed)
		}
		if !union[addr] {
			continue
		}
		if len(o.history[addr]) != 2 { // Setup's version and this one
			t.Fatalf("node %d was written %d times by one DeleteMany", addr, len(o.history[addr])-1)
		}
		if bytes.Equal(oldKeys[addr], newKeys[addr]) {
			t.Fatalf("node %d kept its key across the re-key", addr)
		}
		if _, err := aead.Open(oldKeys[addr], after[addr], nodeAD(addr)); err == nil {
			t.Fatalf("node %d still opens under its old key", addr)
		}
	}
}

// nodeKeys walks the interior nodes above leaves idx with the store's
// current root key and returns the key each one is sealed under.
func nodeKeys(t *testing.T, s *Store, o *MemOracle, idx []int) map[uint64][]byte {
	t.Helper()
	l := &legacyStore{oracle: o, rootKey: s.RootKey(), height: s.height, numData: s.numData}
	keys := map[uint64][]byte{1: l.rootKey}
	for _, i := range idx {
		path := l.pathAddrs(i)
		for d := 0; d < s.height; d++ {
			pt, err := l.openInterior(path[d], keys[path[d]])
			if err != nil {
				t.Fatal(err)
			}
			keys[path[d+1]] = append([]byte(nil), childKey(pt, path[d], path[d+1])...)
		}
	}
	return keys
}

func TestTamperDetected(t *testing.T) {
	s, o := setup(t, 16)
	// Flip a byte in every stored block in turn; every read that touches it
	// must fail with an integrity error, never return wrong data.
	want := blocks(16, 16)
	for addr := range o.blocks {
		orig := append([]byte(nil), o.blocks[addr]...)
		o.blocks[addr][len(orig)/2] ^= 1
		for i := 0; i < 16; i++ {
			got, err := s.Read(i)
			if err == nil && !bytes.Equal(got, want[i]) {
				t.Fatalf("tampered node %d: Read(%d) returned wrong data without error", addr, i)
			}
		}
		o.blocks[addr] = orig
	}
}

func TestBlockSwapDetected(t *testing.T) {
	s, o := setup(t, 4)
	// Swap two leaf ciphertexts: address binding must make reads fail.
	leafA := uint64(1<<uint(s.height)) + 0
	leafB := uint64(1<<uint(s.height)) + 1
	o.blocks[leafA], o.blocks[leafB] = o.blocks[leafB], o.blocks[leafA]
	if _, err := s.Read(0); err == nil {
		t.Fatal("swapped leaf ciphertext accepted")
	}
}

func TestWrite(t *testing.T) {
	s, _ := setup(t, 8)
	if err := s.Write(2, []byte("updated-content!")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(2)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "updated-content!" {
		t.Fatalf("got %q", got)
	}
	// others intact
	if _, err := s.Read(3); err != nil {
		t.Fatal(err)
	}
}

func TestWriteRevivesDeleted(t *testing.T) {
	s, _ := setup(t, 8)
	if err := s.Delete(4); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(4, []byte("revived")); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(4)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "revived" {
		t.Fatalf("got %q", got)
	}
}

func TestSingleBlockStore(t *testing.T) {
	o := NewMemOracle()
	s, err := Setup(o, [][]byte{[]byte("solo")}, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Read(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "solo" {
		t.Fatal("single block mismatch")
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read(0); !errors.Is(err, ErrDeleted) {
		t.Fatal("single block not deleted")
	}
	if err := s.Write(0, []byte("back")); err != nil {
		t.Fatal(err)
	}
	got, err = s.Read(0)
	if err != nil || string(got) != "back" {
		t.Fatalf("revive failed: %q %v", got, err)
	}
}

func TestEmptySetupRejected(t *testing.T) {
	if _, err := Setup(NewMemOracle(), nil, rand.Reader, nil); err == nil {
		t.Fatal("empty setup accepted")
	}
}

func TestMeterCountsLogarithmic(t *testing.T) {
	// Delete cost must scale with tree height, not array size: the whole
	// point of the scheme (Figure 9's 4423× claim). A delete is one
	// exchange in and one out whatever the height; what grows with the
	// height is the bytes those two exchanges carry.
	costOf := func(n int) (roundTrips, bytes int64) {
		o := NewMemOracle()
		m := meter.New()
		s, err := Setup(o, blocks(n, 32), rand.Reader, m)
		if err != nil {
			t.Fatal(err)
		}
		m.Reset()
		if err := s.Delete(n / 2); err != nil {
			t.Fatal(err)
		}
		return m.Get(meter.OpIORoundTrip), m.Get(meter.OpIOByte)
	}
	smallRT, small := costOf(16)
	largeRT, large := costOf(1024)
	if smallRT != 2 || largeRT != 2 {
		t.Fatalf("delete round trips: 16→%d, 1024→%d, want 2 at any height", smallRT, largeRT)
	}
	if large > small*3 {
		t.Fatalf("delete cost grew superlogarithmically: 16→%d bytes, 1024→%d bytes", small, large)
	}
	if large <= small {
		t.Fatalf("delete cost did not grow with height: %d vs %d bytes", small, large)
	}
}

// TestExchangeCounts pins how often each operation talks to the provider.
func TestExchangeCounts(t *testing.T) {
	s, o := setupSpy(t, 256) // 511 nodes
	if want := (511 + MaxBatch - 1) / MaxBatch; o.puts != want || o.gets != 0 {
		t.Fatalf("Setup of 511 nodes: %d gets, %d puts, want 0 and %d", o.gets, o.puts, want)
	}
	for _, c := range []struct {
		name       string
		op         func() error
		gets, puts int
	}{
		{"Read", func() error { _, err := s.Read(9); return err }, 1, 0},
		{"ReadMany", func() error { _, err := s.ReadMany([]int{1, 9, 130, 255}); return err }, 1, 0},
		{"Delete", func() error { return s.Delete(9) }, 1, 1},
		{"Delete again", func() error { return s.Delete(9) }, 1, 0},
		{"Write", func() error { return s.Write(10, []byte("x")) }, 1, 1},
		{"Write revives", func() error { return s.Write(9, []byte("y")) }, 1, 1},
		{"DeleteMany", func() error { _, err := s.DeleteMany([]int{1, 9, 130, 255}); return err }, 1, 1},
	} {
		o.gets, o.puts = 0, 0
		if err := c.op(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if o.gets != c.gets || o.puts != c.puts {
			t.Errorf("%s: %d gets and %d puts, want %d and %d", c.name, o.gets, o.puts, c.gets, c.puts)
		}
	}
}

// TestHostileOracle: the provider is the adversary. Whatever it does to a
// reply — or to a write — the operation fails with an error, the root key
// stays where it was, nothing is written, and once the provider behaves
// again every leaf the operation did not concern still reads.
func TestHostileOracle(t *testing.T) {
	idx := []int{5, 6, 40}
	// stale is every block as Setup wrote it; the reply covers addrs.
	for name, tamper := range map[string]func(stale map[uint64][]byte, addrs []uint64, b [][]byte) [][]byte{
		"two blocks swapped": func(_ map[uint64][]byte, _ []uint64, b [][]byte) [][]byte {
			b[1], b[2] = b[2], b[1]
			return b
		},
		"reply truncated": func(_ map[uint64][]byte, _ []uint64, b [][]byte) [][]byte { return b[:len(b)-1] },
		"extra entry":     func(_ map[uint64][]byte, _ []uint64, b [][]byte) [][]byte { return append(b, b[0]) },
		"stale version replayed": func(stale map[uint64][]byte, addrs []uint64, b [][]byte) [][]byte {
			b[0] = stale[addrs[0]] // the root
			return b
		},
		"over-long block": func(_ map[uint64][]byte, _ []uint64, b [][]byte) [][]byte {
			b[len(b)-1] = make([]byte, 1<<16)
			return b
		},
		"live block withheld": func(_ map[uint64][]byte, _ []uint64, b [][]byte) [][]byte {
			b[len(b)-1] = nil
			return b
		},
	} {
		t.Run(name, func(t *testing.T) {
			s, o := setupSpy(t, 64)
			stale := o.Blocks()
			if err := s.Delete(63); err != nil { // so the Setup-time root is stale
				t.Fatal(err)
			}
			root, stored, puts := s.RootKey(), o.Blocks(), o.puts
			o.tamper = func(addrs []uint64, b [][]byte) [][]byte { return tamper(stale, addrs, b) }
			if _, err := s.ReadMany(idx); err == nil {
				t.Fatal("ReadMany accepted the doctored reply")
			}
			if n, err := s.DeleteMany(idx); err == nil || n != 0 {
				t.Fatalf("DeleteMany accepted the doctored reply: %d, %v", n, err)
			}
			if err := s.Write(idx[0], []byte("new")); err == nil {
				t.Fatal("Write accepted the doctored reply")
			}
			o.tamper = nil
			assertUntouched(t, s, o, root, stored, puts, 63)
		})
	}
	t.Run("PutMany fails", func(t *testing.T) {
		s, o := setupSpy(t, 64)
		root, stored, puts := s.RootKey(), o.Blocks(), o.puts
		o.putErr = errors.New("disk full")
		if n, err := s.DeleteMany(idx); !errors.Is(err, o.putErr) || n != 0 {
			t.Fatalf("DeleteMany = %d, %v", n, err)
		}
		if err := s.Write(idx[0], []byte("new")); !errors.Is(err, o.putErr) {
			t.Fatalf("Write: %v", err)
		}
		o.putErr = nil
		assertUntouched(t, s, o, root, stored, puts+2, -1)
	})
	t.Run("block under a deleted key withheld", func(t *testing.T) {
		// Nodes below a deleted key are requested but never opened, so a
		// provider that lost them has broken nothing the HSM can reach.
		s, o := setupSpy(t, 4) // height 2
		if _, err := s.DeleteMany([]int{0, 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Write(1, []byte("back")); err != nil { // node 2 rebuilt, leaf 0 stays dead
			t.Fatal(err)
		}
		delete(o.blocks, s.leafAddr(0))
		if _, err := s.Read(0); !errors.Is(err, ErrDeleted) {
			t.Fatalf("Read(0) = %v, want ErrDeleted", err)
		}
		if n, err := s.DeleteMany([]int{0, 1}); err != nil || n != 1 {
			t.Fatalf("DeleteMany = %d, %v", n, err)
		}
	})
}

// assertUntouched checks that failed operations left the store as it was:
// same root key, same blocks at the provider, no write beyond wantPuts, and
// every leaf but the deleted one still reads.
func assertUntouched(t *testing.T, s *Store, o *spyOracle, root []byte, stored map[uint64][]byte, wantPuts, deleted int) {
	t.Helper()
	if !bytes.Equal(s.RootKey(), root) {
		t.Fatal("root key advanced by a failed operation")
	}
	if o.puts != wantPuts {
		t.Fatalf("%d PutMany calls, want %d", o.puts, wantPuts)
	}
	now := o.Blocks()
	for addr, b := range stored {
		if !bytes.Equal(now[addr], b) {
			t.Fatalf("node %d was rewritten by a failed operation", addr)
		}
	}
	want := blocks(s.numData, 16)
	for i := 0; i < s.numData; i++ {
		got, err := s.Read(i)
		if i == deleted {
			if !errors.Is(err, ErrDeleted) {
				t.Fatalf("Read(%d) = %v, want ErrDeleted", i, err)
			}
		} else if err != nil || !bytes.Equal(got, want[i]) {
			t.Fatalf("Read(%d) = %q, %v", i, got, err)
		}
	}
}

// TestServingSideBounds: an oracle refuses a write whose slices disagree
// and any exchange beyond MaxBatch blocks.
func TestServingSideBounds(t *testing.T) {
	o := NewMemOracle()
	if err := o.PutMany([]uint64{1, 2}, [][]byte{{1}}); err == nil {
		t.Fatal("PutMany accepted 2 addresses with 1 block")
	}
	big := make([]uint64, MaxBatch+1)
	if err := o.PutMany(big, make([][]byte, len(big))); err == nil {
		t.Fatal("PutMany accepted more than MaxBatch blocks")
	}
	if _, err := o.GetMany(big); err == nil {
		t.Fatal("GetMany accepted more than MaxBatch addresses")
	}
	if o.Len() != 0 {
		t.Fatal("a refused batch was partly stored")
	}
}

func TestHeightHelpers(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := HeightForBlocks(n); got != want {
			t.Fatalf("HeightForBlocks(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestOracleMissingBlock(t *testing.T) {
	s, o := setup(t, 8)
	for addr := range o.blocks {
		delete(o.blocks, addr)
		break
	}
	failures := 0
	for i := 0; i < 8; i++ {
		if _, err := s.Read(i); err != nil {
			failures++
		}
	}
	if failures == 0 {
		t.Fatal("no read failed despite missing provider block")
	}
}

func TestLargeStoreReadDelete(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	n := 4096
	o := NewMemOracle()
	s, err := Setup(o, blocks(n, aead.KeySize), rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 97 {
		if _, err := s.Read(i); err != nil {
			t.Fatal(err)
		}
		if err := s.Delete(i); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(i); !errors.Is(err, ErrDeleted) {
			t.Fatal("not deleted")
		}
	}
}

func BenchmarkRead4K(b *testing.B) {
	o := NewMemOracle()
	s, err := Setup(o, blocks(4096, 32), rand.Reader, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read(i % 4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeleteWriteCycle4K(b *testing.B) {
	o := NewMemOracle()
	s, err := Setup(o, blocks(4096, 32), rand.Reader, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx := i % 4096
		if err := s.Delete(idx); err != nil {
			b.Fatal(err)
		}
		if err := s.Write(idx, []byte("refill-refill-refill-refill-....")); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadDelete8Of16K is one puncture's worth of store work at the
// shape of bfe.BenchmarkDecryptAndPuncture (M = 2^14 scalars, K = 8): read
// eight scattered leaves and delete them in the same pass.
// scripts/bench_guard.sh holds bfe's decrypt-and-puncture to this plus one
// point multiplication, so a second pass over the store cannot come back
// unnoticed.
func BenchmarkReadDelete8Of16K(b *testing.B) {
	const n, k = 1 << 14, 8
	s, err := Setup(NewMemOracle(), blocks(n, 32), rand.Reader, nil)
	if err != nil {
		b.Fatal(err)
	}
	idx := make([]int, k)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range idx {
			idx[j] = (i*k + j) * 7919 % n
		}
		if _, err := s.ReadDelete(idx, func([][]byte) (bool, error) { return true, nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// TestIsDeletedConstantTime pins the sentinel semantics across the switch
// from an early-exit byte loop to subtle.ConstantTimeCompare: exactly the
// KeySize-zero sentinel reads as deleted; live keys (including ones that
// are zero everywhere but the last byte) and wrong-length slices do not.
func TestIsDeletedConstantTime(t *testing.T) {
	if !isDeleted(deletedKey) {
		t.Fatal("deletedKey sentinel not recognized")
	}
	if !isDeleted(make([]byte, aead.KeySize)) {
		t.Fatal("fresh all-zero key of KeySize not recognized as deleted")
	}
	lateBit := make([]byte, aead.KeySize)
	lateBit[aead.KeySize-1] = 1
	if isDeleted(lateBit) {
		t.Fatal("key with a single trailing nonzero byte read as deleted")
	}
	earlyBit := make([]byte, aead.KeySize)
	earlyBit[0] = 1
	if isDeleted(earlyBit) {
		t.Fatal("key with a single leading nonzero byte read as deleted")
	}
	if isDeleted(make([]byte, aead.KeySize-1)) || isDeleted(nil) {
		t.Fatal("wrong-length slice read as deleted")
	}
}
