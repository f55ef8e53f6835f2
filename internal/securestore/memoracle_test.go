package securestore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// blockAt returns the arena bytes of the block at addr: an alias, so a
// test can tamper with the stored block in place.
func (o *MemOracle) blockAt(addr uint64) []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	off, n := unpackExtent(o.slots[o.slotLocked(addr, false)])
	return o.arena[off : off+n : off+n]
}

// drop forgets the block at addr, as a provider that lost it would.
func (o *MemOracle) drop(addr uint64) {
	o.mu.Lock()
	defer o.mu.Unlock()
	j := o.slotLocked(addr, false)
	_, n := unpackExtent(o.slots[j])
	o.dead += n
	o.slots[j] = 0
}

// addrs returns every address that holds a block, ascending.
func (o *MemOracle) addrs() []uint64 {
	var out []uint64
	for addr := range o.Blocks() {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// usage returns the live and dead bytes and the arena's length.
func (o *MemOracle) usage() (live, dead, arena int) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.arena) - o.dead, o.dead, len(o.arena)
}

// checkArena verifies the layout invariants: the extents lie inside the
// arena without overlapping, the bytes they cover are the live bytes, the
// rest are the dead bytes, and the dead bytes never exceed the live ones.
func (o *MemOracle) checkArena(t testing.TB) {
	t.Helper()
	o.mu.RLock()
	defer o.mu.RUnlock()
	type span struct{ off, n int }
	var spans []span
	live := 0
	for _, e := range o.slots {
		if e == 0 {
			continue
		}
		off, n := unpackExtent(e)
		spans = append(spans, span{off, n})
		live += n
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].off < spans[j].off })
	end := 0
	for _, sp := range spans {
		if sp.n == 0 && sp.off <= len(o.arena) {
			continue // an empty block covers no byte
		}
		if sp.off < end || sp.off+sp.n > len(o.arena) {
			t.Fatalf("extent [%d,+%d) overlaps its neighbour or leaves the %d-byte arena", sp.off, sp.n, len(o.arena))
		}
		end = sp.off + sp.n
	}
	if len(o.slots) != pageSize*len(o.pages) {
		t.Fatalf("%d slots for %d pages", len(o.slots), len(o.pages))
	}
	if live+o.dead != len(o.arena) {
		t.Fatalf("live %d + dead %d != arena %d", live, o.dead, len(o.arena))
	}
	if o.dead > live {
		t.Fatalf("dead %d bytes exceed live %d after a batch", o.dead, live)
	}
}

// memOracleOf returns a MemOracle holding blocks.
func memOracleOf(t testing.TB, blocks map[uint64][]byte) *MemOracle {
	t.Helper()
	o := NewMemOracle()
	for addr, b := range blocks {
		if err := o.PutMany([]uint64{addr}, [][]byte{b}); err != nil {
			t.Fatal(err)
		}
	}
	return o
}

// mapOracle is the map-backed store the arena replaced, one heap slice
// per block: the differential model for MemOracle.
type mapOracle struct {
	blocks map[uint64][]byte
}

func newMapOracle() *mapOracle { return &mapOracle{blocks: make(map[uint64][]byte)} }

func (o *mapOracle) GetMany(addrs []uint64) ([][]byte, error) {
	if err := checkBound(len(addrs)); err != nil {
		return nil, err
	}
	out := make([][]byte, len(addrs))
	for i, addr := range addrs {
		if b, ok := o.blocks[addr]; ok {
			out[i] = append([]byte(nil), b...)
		}
	}
	return out, nil
}

func (o *mapOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	if err := CheckPut(addrs, blocks); err != nil {
		return err
	}
	for i, addr := range addrs {
		o.blocks[addr] = append([]byte(nil), blocks[i]...)
	}
	return nil
}

// sameBlocks compares two Blocks results: the same addresses, each
// with the same bytes.
func sameBlocks(a, b map[uint64][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d blocks against %d", len(a), len(b))
	}
	for addr, x := range a {
		y, ok := b[addr]
		if !ok || !bytes.Equal(x, y) {
			return fmt.Errorf("block %d: %x against %x (present %v)", addr, x, y, ok)
		}
	}
	return nil
}

// TestMemOracleRewriteLength: a rewrite of another length takes new
// space and leaves the old bytes dead, one of the same length lands in
// place, and the neighbours read as they were.
func TestMemOracleRewriteLength(t *testing.T) {
	o := NewMemOracle()
	put := func(addr uint64, b []byte) {
		t.Helper()
		if err := o.PutMany([]uint64{addr}, [][]byte{b}); err != nil {
			t.Fatal(err)
		}
		o.checkArena(t)
	}
	put(1, bytes.Repeat([]byte{1}, 40))
	put(2, bytes.Repeat([]byte{2}, 40))
	put(3, bytes.Repeat([]byte{3}, 40))
	put(2, bytes.Repeat([]byte{4}, 40)) // same length: in place
	if live, dead, size := o.usage(); live != 120 || dead != 0 || size != 120 {
		t.Fatalf("in-place rewrite: live %d, dead %d, arena %d", live, dead, size)
	}
	put(2, bytes.Repeat([]byte{5}, 10)) // shorter: appended
	if live, dead, size := o.usage(); live != 90 || dead != 40 || size != 130 {
		t.Fatalf("shorter rewrite: live %d, dead %d, arena %d", live, dead, size)
	}
	put(2, bytes.Repeat([]byte{6}, 60)) // longer: appended, then 50 dead ≤ 140 live
	if live, dead, size := o.usage(); live != 140 || dead != 50 || size != 190 {
		t.Fatalf("longer rewrite: live %d, dead %d, arena %d", live, dead, size)
	}
	put(2, nil) // empty: reads as absent, and the arena compacts
	got, err := o.GetMany([]uint64{1, 2, 3, 9})
	if err != nil {
		t.Fatal(err)
	}
	want := [][]byte{bytes.Repeat([]byte{1}, 40), nil, bytes.Repeat([]byte{3}, 40), nil}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) || (got[i] == nil) != (want[i] == nil) {
			t.Fatalf("block %d: %x, want %x", i, got[i], want[i])
		}
	}
	if live, dead, size := o.usage(); live != 80 || dead != 0 || size != 80 {
		t.Fatalf("after compaction: live %d, dead %d, arena %d", live, dead, size)
	}
	if b, ok := o.Blocks()[2]; !ok || b != nil {
		t.Fatalf("an empty block must stay listed, as nil: %x, %v", b, ok)
	}
}

// TestMemOracleCompactionBound churns random-length rewrites over a small
// address space and checks, after every batch, that the arena holds at
// most twice its live bytes and reads exactly as the map-backed model.
func TestMemOracleCompactionBound(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	o, model := NewMemOracle(), newMapOracle()
	compactions := 0
	for step := 0; step < 5000; step++ {
		n := 1 + rng.Intn(8)
		addrs, blocks := make([]uint64, n), make([][]byte, n)
		for i := range addrs {
			addrs[i] = uint64(rng.Intn(64)) << (pageBits * rng.Intn(3)) // over 3 pages
			blocks[i] = make([]byte, rng.Intn(100))
			rng.Read(blocks[i])
		}
		_, before, _ := o.usage()
		if err := o.PutMany(addrs, blocks); err != nil {
			t.Fatal(err)
		}
		if err := model.PutMany(addrs, blocks); err != nil {
			t.Fatal(err)
		}
		if _, after, _ := o.usage(); after < before {
			compactions++
		}
		o.checkArena(t)
		if err := sameBlocks(o.Blocks(), model.blocks); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
	if compactions == 0 {
		t.Fatal("the churn never compacted the arena")
	}
}

// TestMemOracleBlocksRoundTrip: Blocks copies out every block, a store
// rebuilt from it reads the same, and writing into the copy changes
// nothing stored.
func TestMemOracleBlocksRoundTrip(t *testing.T) {
	s, o := setup(t, 64)
	if err := s.Delete(5); err != nil {
		t.Fatal(err)
	}
	snap := o.Blocks()
	again := memOracleOf(t, snap)
	if err := sameBlocks(again.Blocks(), snap); err != nil {
		t.Fatal(err)
	}
	for _, b := range snap {
		for i := range b {
			b[i] ^= 0xff
		}
	}
	if err := sameBlocks(o.Blocks(), again.Blocks()); err != nil {
		t.Fatalf("writing into a Blocks copy reached the store: %v", err)
	}
	s.SetOracle(again)
	for i := 0; i < 64; i++ {
		if _, err := s.Read(i); (err != nil) != (i == 5) {
			t.Fatalf("Read(%d) on the rebuilt store: %v", i, err)
		}
	}
}

// TestMemOracleConcurrent runs writers and readers side by side (run it
// under -race). Each writer stamps its whole batch with one version, and
// each reader must see one version across a batch: a PutMany lands under
// one lock hold.
func TestMemOracleConcurrent(t *testing.T) {
	o := NewMemOracle()
	const writers, readers, rounds, width = 4, 4, 300, 16
	batch := func(w int) []uint64 {
		addrs := make([]uint64, width)
		for i := range addrs {
			addrs[i] = uint64(w*width + i)
		}
		return addrs
	}
	var wg sync.WaitGroup
	errs := make(chan error, writers+readers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				blocks := make([][]byte, width)
				for i := range blocks {
					// Lengths vary by round, so writes both land in place
					// and append and compact.
					blocks[i] = make([]byte, 8+r%5)
					binary.BigEndian.PutUint64(blocks[i], uint64(r))
				}
				if err := o.PutMany(batch(w), blocks); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				got, err := o.GetMany(batch((g + r) % writers))
				if err != nil {
					errs <- err
					return
				}
				for i := range got {
					if len(got[i]) != len(got[0]) || !bytes.Equal(got[i][:min(8, len(got[i]))], got[0][:min(8, len(got[0]))]) {
						errs <- fmt.Errorf("a read saw two versions of one batch: %x and %x", got[0], got[i])
						return
					}
				}
				_ = o.Blocks()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	o.checkArena(t)
}

// TestMemOracleRefusesOverlongBlock: a block longer than an extent can
// describe is refused, and the rest of its batch with it.
func TestMemOracleRefusesOverlongBlock(t *testing.T) {
	o := NewMemOracle()
	err := o.PutMany([]uint64{1, 2}, [][]byte{{1}, make([]byte, MaxBlock+1)})
	if err == nil || o.Len() != 0 {
		t.Fatalf("PutMany = %v with %d blocks stored", err, o.Len())
	}
}

// FuzzMemOracle replays a byte string as a run of PutMany, GetMany and
// Blocks calls on the arena and on the map-backed model, comparing every
// result and checking the arena's layout after every write.
func FuzzMemOracle(f *testing.F) {
	f.Add([]byte{0, 3, 1, 5, 2, 7, 3, 9, 1, 2, 0, 1, 1, 30, 2})
	f.Add([]byte{0, 1, 4, 40, 0, 1, 4, 10, 0, 1, 4, 0, 1, 1, 4, 2})
	f.Add(bytes.Repeat([]byte{0, 2, 9, 33, 10, 2}, 20))
	f.Fuzz(func(t *testing.T, ops []byte) {
		o, model := NewMemOracle(), newMapOracle()
		next := func() int {
			if len(ops) == 0 {
				return 0
			}
			b := ops[0]
			ops = ops[1:]
			return int(b)
		}
		for len(ops) > 0 {
			switch next() % 3 {
			case 0: // PutMany of up to 4 blocks
				n := next() % 5
				addrs, blocks := make([]uint64, n), make([][]byte, n)
				for i := range addrs {
					addrs[i] = fuzzAddr(next())
					blocks[i] = bytes.Repeat([]byte{byte(next())}, next()%64)
				}
				err, want := o.PutMany(addrs, blocks), model.PutMany(addrs, blocks)
				if (err == nil) != (want == nil) {
					t.Fatalf("PutMany: %v, model %v", err, want)
				}
				o.checkArena(t)
			case 1: // GetMany of up to 4 addresses
				n := next() % 5
				addrs := make([]uint64, n)
				for i := range addrs {
					addrs[i] = fuzzAddr(next())
				}
				got, _ := o.GetMany(addrs)
				want, _ := model.GetMany(addrs)
				for i := range want {
					if !bytes.Equal(got[i], want[i]) || (got[i] == nil) != (want[i] == nil) {
						t.Fatalf("GetMany %d: %x, model %x", addrs[i], got[i], want[i])
					}
				}
			case 2:
				if err := sameBlocks(o.Blocks(), model.blocks); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}

// fuzzAddr spreads a byte over 61 addresses on 16 index pages: 16 low
// values, each shifted by 0, 12, 24 or 36 bits.
func fuzzAddr(b int) uint64 { return uint64(b%16) << (12 * (b / 16 % 4)) }
