package securestore

// legacy_test.go keeps the per-block walk the store used before it talked
// to its oracle in path batches — one Get per node on the way down, a
// re-Get and a Put per node on the way up, one leaf at a time — as the
// differential oracle for the batched routine. Both read and write the same
// tree format, so a legacyStore can take over a tree that Setup built.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"fmt"
	mrand "math/rand"
	"testing"

	"safetypin/internal/aead"
)

// newKey draws a fresh AEAD key from crypto/rand.
func newKey() []byte {
	key, err := aead.NewKey(rand.Reader)
	if err != nil {
		panic(err)
	}
	return key
}

type legacyStore struct {
	oracle  *MemOracle
	rootKey []byte
	height  int
	numData int
}

// newLegacy builds a tree over data with Setup and hands it to the
// per-block walk.
func newLegacy(t testing.TB, data [][]byte) *legacyStore {
	t.Helper()
	o := NewMemOracle()
	s, err := Setup(o, data, rand.Reader, nil)
	if err != nil {
		t.Fatal(err)
	}
	return &legacyStore{oracle: o, rootKey: s.RootKey(), height: s.height, numData: s.numData}
}

func (s *legacyStore) get(addr uint64) ([]byte, error) {
	got, err := s.oracle.GetMany([]uint64{addr})
	if err != nil {
		return nil, err
	}
	if len(got[0]) == 0 {
		return nil, fmt.Errorf("legacy: no block at address %d", addr)
	}
	return got[0], nil
}

func (s *legacyStore) put(addr uint64, block []byte) error {
	return s.oracle.PutMany([]uint64{addr}, [][]byte{block})
}

func (s *legacyStore) pathAddrs(i int) []uint64 {
	leaf := uint64(1<<uint(s.height)) + uint64(i)
	path := make([]uint64, s.height+1)
	for d := s.height; d >= 0; d-- {
		path[d] = leaf >> uint(s.height-d)
	}
	return path
}

// openInterior reads interior node addr under key and returns its plaintext.
func (s *legacyStore) openInterior(addr uint64, key []byte) ([]byte, error) {
	box, err := s.get(addr)
	if err != nil {
		return nil, err
	}
	pt, err := aead.Open(key, box, nodeAD(addr))
	if err != nil {
		return nil, fmt.Errorf("legacy: integrity failure at node %d: %w", addr, err)
	}
	if len(pt) != 2*aead.KeySize {
		return nil, fmt.Errorf("legacy: malformed interior node %d", addr)
	}
	return pt, nil
}

// childKey picks the key of path[d+1] out of its parent's plaintext.
func childKey(pt []byte, parent, child uint64) []byte {
	if child == 2*parent {
		return pt[:aead.KeySize]
	}
	return pt[aead.KeySize:]
}

func (s *legacyStore) readPath(i int) (keys [][]byte, leaf []byte, err error) {
	path := s.pathAddrs(i)
	keys = make([][]byte, len(path))
	keys[0] = s.rootKey
	for d, addr := range path {
		if isDeleted(keys[d]) {
			return nil, nil, ErrDeleted
		}
		if d == s.height {
			box, err := s.get(addr)
			if err != nil {
				return nil, nil, err
			}
			pt, err := aead.Open(keys[d], box, nodeAD(addr))
			if err != nil {
				return nil, nil, fmt.Errorf("legacy: integrity failure at node %d: %w", addr, err)
			}
			return keys, pt, nil
		}
		pt, err := s.openInterior(addr, keys[d])
		if err != nil {
			return nil, nil, err
		}
		keys[d+1] = childKey(pt, addr, path[d+1])
	}
	return keys, leaf, nil
}

func (s *legacyStore) Read(i int) ([]byte, error) {
	_, leaf, err := s.readPath(i)
	return leaf, err
}

// rekeyPath re-encrypts the path to leaf i bottom-up, re-reading each node
// readPath has just opened, and installs a fresh root key.
func (s *legacyStore) rekeyPath(i int, keys [][]byte, newLeafKey, newLeafBox []byte) error {
	path := s.pathAddrs(i)
	if newLeafBox != nil {
		if err := s.put(path[s.height], newLeafBox); err != nil {
			return err
		}
	}
	child := newLeafKey
	for d := s.height - 1; d >= 0; d-- {
		addr := path[d]
		pt, err := s.openInterior(addr, keys[d])
		if err != nil {
			return err
		}
		copy(childKey(pt, addr, path[d+1]), child)
		fresh := newKey()
		box, err := aead.Seal(fresh, pt, nodeAD(addr))
		if err != nil {
			return err
		}
		if err := s.put(addr, box); err != nil {
			return err
		}
		child = fresh
	}
	s.rootKey = child
	return nil
}

func (s *legacyStore) Delete(i int) error {
	keys, _, err := s.readPath(i)
	if err == ErrDeleted {
		return nil
	}
	if err != nil {
		return err
	}
	return s.rekeyPath(i, keys, deletedKey, nil)
}

func (s *legacyStore) Write(i int, data []byte) error {
	keys, _, err := s.readPath(i)
	if err == ErrDeleted {
		keys, err = s.pathKeysStoppingAtDeleted(i)
	}
	if err != nil {
		return err
	}
	leafKey := newKey()
	leafBox, err := aead.Seal(leafKey, data, nodeAD(s.pathAddrs(i)[s.height]))
	if err != nil {
		return err
	}
	return s.rekeyPath(i, keys, leafKey, leafBox)
}

// pathKeysStoppingAtDeleted is the revival walk: keys above the deletion
// point are read normally; every orphaned node below is re-created under a
// fresh key with both children marked deleted, so rekeyPath can open it.
func (s *legacyStore) pathKeysStoppingAtDeleted(i int) ([][]byte, error) {
	path := s.pathAddrs(i)
	keys := make([][]byte, len(path))
	keys[0] = s.rootKey
	for d := 0; d < s.height; d++ {
		addr := path[d]
		if isDeleted(keys[d]) {
			keys[d] = newKey()
			box, err := aead.Seal(keys[d], make([]byte, 2*aead.KeySize), nodeAD(addr))
			if err != nil {
				return nil, err
			}
			if err := s.put(addr, box); err != nil {
				return nil, err
			}
		}
		pt, err := s.openInterior(addr, keys[d])
		if err != nil {
			return nil, err
		}
		keys[d+1] = childKey(pt, addr, path[d+1])
	}
	return keys, nil
}

// TestBatchedMatchesLegacyWalk drives the batched store and the per-block
// walk through the same random Read/Delete/Write/DeleteMany sequence —
// duplicate indices, already-deleted indices and revive-after-delete
// included — and wants the same visible contents and the same count of
// deletions at every step.
func TestBatchedMatchesLegacyWalk(t *testing.T) {
	for _, n := range []int{1, 2, 200, 256} { // heights 0, 1, 8, 8
		n := n
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			data := blocks(n, 16)
			s, _ := setup(t, n)
			legacy := newLegacy(t, data)
			rng := mrand.New(mrand.NewSource(int64(n)))
			deleted, legacyDeleted := 0, 0
			legacyDelete := func(i int) {
				_, readErr := legacy.Read(i)
				if err := legacy.Delete(i); err != nil {
					t.Fatalf("legacy Delete(%d): %v", i, err)
				}
				if readErr == nil {
					legacyDeleted++ // it was live until now
				}
			}
			for step := 0; step < 400; step++ {
				i := rng.Intn(n)
				switch rng.Intn(4) {
				case 0:
					got, err := s.Read(i)
					want, werr := legacy.Read(i)
					if !errors.Is(err, werr) || !bytes.Equal(got, want) {
						t.Fatalf("step %d Read(%d): %q, %v; legacy %q, %v", step, i, got, err, want, werr)
					}
				case 1:
					k, err := s.DeleteMany([]int{i})
					if err != nil {
						t.Fatalf("step %d Delete(%d): %v", step, i, err)
					}
					deleted += k
					legacyDelete(i)
				case 2:
					payload := []byte(fmt.Sprintf("step-%d-leaf-%d", step, i))
					if err := s.Write(i, payload); err != nil {
						t.Fatalf("step %d Write(%d): %v", step, i, err)
					}
					if err := legacy.Write(i, payload); err != nil {
						t.Fatalf("step %d legacy Write(%d): %v", step, i, err)
					}
				case 3:
					// Up to 5 indices: repeats and dead leaves on purpose.
					idx := make([]int, 1+rng.Intn(5))
					for k := range idx {
						idx[k] = rng.Intn(n)
					}
					idx = append(idx, idx[0])
					k, err := s.DeleteMany(idx)
					if err != nil {
						t.Fatalf("step %d DeleteMany(%v): %v", step, idx, err)
					}
					deleted += k
					for _, i := range idx {
						legacyDelete(i)
					}
				}
				if deleted != legacyDeleted {
					t.Fatalf("step %d: batched store deleted %d blocks, legacy %d", step, deleted, legacyDeleted)
				}
			}
			all := make([]int, n)
			for i := range all {
				all[i] = i
			}
			for lo := 0; lo < n; lo += 16 { // ReadMany in chunks, Read one by one
				hi := lo + 16
				if hi > n {
					hi = n
				}
				got, err := s.ReadMany(all[lo:hi])
				if err != nil {
					t.Fatal(err)
				}
				for k, i := range all[lo:hi] {
					want, werr := legacy.Read(i)
					if (got[k] == nil) != errors.Is(werr, ErrDeleted) || !bytes.Equal(got[k], want) {
						t.Fatalf("final block %d: %q; legacy %q, %v", i, got[k], want, werr)
					}
				}
			}
		})
	}
}

// TestLegacyWalkReadsBatchedTree: the two walks share one tree format — the
// legacy walk, handed the batched store's oracle and root key after a run of
// batched mutations, reads exactly what the batched store reads.
func TestLegacyWalkReadsBatchedTree(t *testing.T) {
	s, o := setup(t, 64)
	if _, err := s.DeleteMany([]int{3, 4, 40, 63}); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(4, []byte("revived")); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(9, []byte("rewritten")); err != nil {
		t.Fatal(err)
	}
	legacy := &legacyStore{oracle: o, rootKey: s.RootKey(), height: s.height, numData: s.numData}
	for i := 0; i < 64; i++ {
		got, err := s.Read(i)
		want, werr := legacy.Read(i)
		if !errors.Is(err, werr) || !bytes.Equal(got, want) {
			t.Fatalf("block %d: %q, %v; legacy %q, %v", i, got, err, want, werr)
		}
	}
}

// Write replaces the contents of block i (and re-keys its path, so the old
// contents are securely deleted as well). Writing to a deleted block
// revives it: the path keys above the deletion point are kept, the deleted
// child key and everything below it are replaced with fresh ones.
func (s *Store) Write(i int, data []byte) error {
	return s.update([]int{i}, func(p *paths) error {
		j := s.leaf(p, i)
		var err error
		if p.newKey[j], err = aead.NewKey(s.rng); err != nil {
			return err
		}
		return s.seal(&p.out, p.addrs[j], p.newKey[j], data)
	})
}
