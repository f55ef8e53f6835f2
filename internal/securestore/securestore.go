package securestore

import (
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"sync"

	"safetypin/internal/aead"
	"safetypin/internal/meter"
)

// MaxBatch bounds one oracle exchange, in blocks. A K-position puncture at
// paper scale (M = 2^21, height 21, K = 4) touches at most 88 nodes; what
// the bound really limits is Setup, which would otherwise ship the whole
// tree at once. 256 interior nodes are ≈ 24 KB of ciphertext: that fits
// the RAM of the HSMs in Table 2 and sits far below the transport's frame
// limit whatever M is.
const MaxBatch = 256

// Oracle is the untrusted external block store (the service provider). The
// HSM reads and writes ciphertext blocks at 64-bit addresses, one batch per
// exchange: node addresses are a public function of the leaf index, so the
// whole set an operation needs is known before the first byte arrives.
type Oracle interface {
	// GetMany returns the blocks at addrs, in order. An address that
	// holds no block yields an empty entry, not an error: the caller
	// decides whether it needed that block.
	GetMany(addrs []uint64) ([][]byte, error)
	// PutMany stores blocks[i] at addrs[i], in order.
	PutMany(addrs []uint64, blocks [][]byte) error
}

func checkBound(n int) error {
	if n > MaxBatch {
		return fmt.Errorf("securestore: batch of %d blocks exceeds the %d-block bound", n, MaxBatch)
	}
	return nil
}

// CheckPut validates the shape of a PutMany on the serving side: one block
// per address and at most MaxBatch of them.
func CheckPut(addrs []uint64, blocks [][]byte) error {
	if len(addrs) != len(blocks) {
		return fmt.Errorf("securestore: batch has %d addresses but %d blocks", len(addrs), len(blocks))
	}
	return checkBound(len(addrs))
}

// MemOracle is an in-memory Oracle for tests and in-process deployments.
// It is safe for concurrent use: the provider serves many HSMs' oracle
// traffic (and remote oracle RPCs) in parallel.
type MemOracle struct {
	mu     sync.RWMutex
	blocks map[uint64][]byte //spin:guardedby mu
}

// NewMemOracle returns an empty in-memory store.
func NewMemOracle() *MemOracle { return &MemOracle{blocks: make(map[uint64][]byte)} }

// GetMany implements Oracle.
func (o *MemOracle) GetMany(addrs []uint64) ([][]byte, error) {
	if err := checkBound(len(addrs)); err != nil {
		return nil, err
	}
	out := make([][]byte, len(addrs))
	o.mu.RLock()
	for i, addr := range addrs {
		if b, ok := o.blocks[addr]; ok {
			out[i] = append([]byte(nil), b...)
		}
	}
	o.mu.RUnlock()
	return out, nil
}

// PutMany implements Oracle. The batch lands under one lock hold, so a
// concurrent GetMany sees all of it or none of it.
func (o *MemOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	if err := CheckPut(addrs, blocks); err != nil {
		return err
	}
	o.mu.Lock()
	for i, addr := range addrs {
		o.blocks[addr] = append([]byte(nil), blocks[i]...)
	}
	o.mu.Unlock()
	return nil
}

// Len returns the number of stored blocks.
func (o *MemOracle) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.blocks)
}

// Blocks returns a copy of every stored block keyed by address — the
// provider's durability layer snapshots oracle contents through this.
func (o *MemOracle) Blocks() map[uint64][]byte {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make(map[uint64][]byte, len(o.blocks))
	for addr, b := range o.blocks {
		out[addr] = append([]byte(nil), b...)
	}
	return out
}

// Store is the HSM-side handle: the root key plus tree geometry. Only the
// root key is secret; everything else is public parameters.
type Store struct {
	oracle  Oracle
	rootKey []byte //spin:secret
	height  int    // leaves sit at depth height; 2^height leaves
	numData int    // caller-visible block count (may be < 2^height)
	maxBox  int    // longest ciphertext block this store has sealed
	meter   *meter.Meter
	rng     io.Reader
}

// deletedKey is the sentinel written in place of a child key that has been
// securely deleted. Real keys are uniformly random, so the all-zero value
// occurs with probability 2^-256.
var deletedKey = make([]byte, aead.KeySize)

// isDeleted reports whether key is the deletion sentinel. Path keys derive
// from the secret root key, so the scan is a single constant-time
// comparison, not an early-exit byte loop whose duration tracks the first
// nonzero byte.
//
//spin:secret key
func isDeleted(key []byte) bool {
	return subtle.ConstantTimeCompare(key, deletedKey) == 1
}

// nodeAD binds each ciphertext to its tree address, preventing the provider
// from swapping blocks between addresses.
func nodeAD(addr uint64) []byte {
	ad := make([]byte, 8+len("safetypin/securestore/v1"))
	copy(ad, "safetypin/securestore/v1")
	binary.BigEndian.PutUint64(ad[len(ad)-8:], addr)
	return ad
}

// ErrDeleted is returned when reading a securely deleted block.
var ErrDeleted = errors.New("securestore: block was securely deleted")

// Setup encrypts the data array into oracle and returns the HSM-side Store.
// The array size is padded to the next power of two internally. m may be
// nil.
//
// All 2^(h+1)−1 node keys are drawn with ONE bulk entropy read up front —
// per-node aead.NewKey reads used to dominate tree construction at
// fleet-provisioning scale; node a's key is the a-th KeySize bytes of it.
// Post-setup operations (rekeying on Delete/Write) still read rng directly:
// they draw a handful of keys, not a tree's worth. Nodes are sealed from
// the highest address down, so children come before their parent, and leave
// in exchanges of MaxBatch blocks.
func Setup(oracle Oracle, data [][]byte, rng io.Reader, m *meter.Meter) (*Store, error) {
	if len(data) == 0 {
		return nil, errors.New("securestore: empty data array")
	}
	s := &Store{oracle: oracle, height: HeightForBlocks(len(data)), numData: len(data), meter: m, rng: rng}
	firstLeaf := s.leafAddr(0)
	keyBuf := make([]byte, 2*firstLeaf*aead.KeySize) // slot 0 is unused
	if _, err := io.ReadFull(rng, keyBuf[aead.KeySize:]); err != nil {
		return nil, fmt.Errorf("securestore: sampling node keys: %w", err)
	}
	key := func(addr uint64) []byte { return keyBuf[addr*aead.KeySize : (addr+1)*aead.KeySize] }
	var out batch
	for addr := 2*firstLeaf - 1; addr >= 1; addr-- {
		var msg []byte
		if addr < firstLeaf {
			msg = append(append(msg, key(2*addr)...), key(2*addr+1)...)
		} else if i := addr - firstLeaf; i < uint64(len(data)) {
			msg = data[i] // the leaves past len(data) are empty padding
		}
		if err := s.seal(&out, addr, key(addr), msg); err != nil {
			return nil, err
		}
		if len(out.addrs) == MaxBatch || addr == 1 {
			if err := s.flush(&out); err != nil {
				return nil, err
			}
		}
	}
	// Copy the root out and scrub the bulk buffer: only the root key may
	// survive setup inside the HSM — every other node key exists solely
	// under its parent's encryption.
	s.rootKey = append([]byte(nil), key(1)...)
	for i := range keyBuf {
		keyBuf[i] = 0
	}
	return s, nil
}

// batch is a run of sealed nodes waiting for their PutMany.
type batch struct {
	addrs  []uint64
	blocks [][]byte
}

// seal encrypts one node under key and queues the ciphertext on out.
func (s *Store) seal(out *batch, addr uint64, key, msg []byte) error {
	box, err := aead.Seal(key, msg, nodeAD(addr))
	if err != nil {
		return err
	}
	s.meter.Add(meter.OpAES32, meter.AESChunks(len(msg)))
	s.maxBox = max(s.maxBox, len(box))
	out.addrs = append(out.addrs, addr)
	out.blocks = append(out.blocks, box)
	return nil
}

// flush writes out to the oracle, MaxBatch blocks an exchange, and empties
// it. An operation's paths fit one exchange unless K·height is unusually
// large; Setup never queues more than one.
func (s *Store) flush(out *batch) error {
	for lo := 0; lo < len(out.addrs); lo += MaxBatch {
		hi := min(lo+MaxBatch, len(out.addrs))
		if err := s.oracle.PutMany(out.addrs[lo:hi], out.blocks[lo:hi]); err != nil {
			return fmt.Errorf("securestore: writing %d nodes from %d: %w", hi-lo, out.addrs[lo], err)
		}
		s.countIO(out.blocks[lo:hi])
	}
	*out = batch{}
	return nil
}

// fetch reads addrs from the oracle, MaxBatch blocks an exchange. The
// provider is the adversary: a reply of the wrong length, or holding a
// block longer than any this store ever sealed, is refused before a key
// touches it.
func (s *Store) fetch(addrs []uint64) ([][]byte, error) {
	boxes := make([][]byte, 0, len(addrs))
	for lo := 0; lo < len(addrs); lo += MaxBatch {
		want := addrs[lo:min(lo+MaxBatch, len(addrs))]
		got, err := s.oracle.GetMany(want)
		if err != nil {
			return nil, fmt.Errorf("securestore: reading %d nodes from %d: %w", len(want), want[0], err)
		}
		if len(got) != len(want) {
			return nil, fmt.Errorf("securestore: integrity failure: asked for %d nodes, oracle returned %d", len(want), len(got))
		}
		for i, box := range got {
			if len(box) > s.maxBox {
				return nil, fmt.Errorf("securestore: integrity failure: node %d is %d bytes, longest sealed is %d",
					want[i], len(box), s.maxBox)
			}
		}
		s.countIO(got)
		boxes = append(boxes, got...)
	}
	return boxes, nil
}

// countIO charges one host↔HSM exchange carrying blocks.
func (s *Store) countIO(blocks [][]byte) {
	bytes := 0
	for _, b := range blocks {
		bytes += len(b)
	}
	s.meter.Add(meter.OpIORoundTrip, 1)
	s.meter.Add(meter.OpIOByte, int64(bytes))
}

// SetOracle repoints the store at a different oracle holding the same
// encrypted blocks — used when a restarted provider rebuilds its hosted
// block stores from the journal and live HSMs must reattach to the new
// copies. The root key is unchanged: the store's contents are defined
// by (rootKey, oracle blocks), so the caller must hand over a faithful
// replica of the blocks this store last wrote.
func (s *Store) SetOracle(o Oracle) { s.oracle = o }

// Len returns the number of logical data blocks.
func (s *Store) Len() int { return s.numData }

// RootKey returns the HSM-internal root key; exposed so tests can model an
// attacker who captures the HSM state after a deletion.
func (s *Store) RootKey() []byte { return append([]byte(nil), s.rootKey...) }

// paths is the union of the root-to-leaf paths of one operation's leaves,
// fetched in one exchange and opened inside the HSM. The slices are
// parallel and ordered by ascending address, so a parent precedes its
// children and the reverse order is bottom-up.
type paths struct {
	addrs []uint64
	at    map[uint64]int // address → position in the slices
	// live marks the nodes reached through live keys only. It is
	// isDeleted's verdict, not a property read off the key bytes.
	live []bool
	pts  [][]byte // opened plaintext of every live node
	// newKey is non-nil for a node whose key changes in this operation
	// (deletedKey for a deleted leaf); out collects the new ciphertexts.
	newKey [][]byte
	out    batch
}

func (s *Store) leafAddr(i int) uint64 { return uint64(1)<<uint(s.height) + uint64(i) }

// leaf returns the position of leaf i in p.
func (s *Store) leaf(p *paths, i int) int { return p.at[s.leafAddr(i)] }

// update is the routine every operation runs. It loads the union of the
// paths to leaves idx in one exchange and opens it top-down — every node
// under its parent-derived key with its own address as associated data,
// never descending below a deleted key. mutate then sees the opened leaves
// and may give some of them new keys (p.newKey, p.out); if it does, their
// ancestors are re-sealed bottom-up under fresh keys, each shared ancestor
// once, and the new ciphertexts leave in one exchange. Only after that
// write succeeds does the fresh root key replace the old one, so a failure
// anywhere — mutate's included — leaves the store as it was; and a mutate
// that re-keys nothing costs no write at all.
func (s *Store) update(idx []int, mutate func(p *paths) error) error {
	p := &paths{at: make(map[uint64]int)}
	for _, i := range idx {
		if i < 0 || i >= s.numData {
			return fmt.Errorf("securestore: index %d out of range [0,%d)", i, s.numData)
		}
		for a := s.leafAddr(i); a >= 1; a >>= 1 {
			if _, seen := p.at[a]; seen {
				break // the rest of the way up is shared
			}
			p.at[a] = 0
			p.addrs = append(p.addrs, a)
		}
	}
	sort.Slice(p.addrs, func(i, j int) bool { return p.addrs[i] < p.addrs[j] })
	for j, a := range p.addrs {
		p.at[a] = j
	}
	boxes, err := s.fetch(p.addrs)
	if err != nil {
		return err
	}
	n := len(p.addrs)
	if n == 0 {
		return mutate(p)
	}
	p.live, p.pts, p.newKey = make([]bool, n), make([][]byte, n), make([][]byte, n)
	keys := make([][]byte, n) // the key each node's ciphertext is sealed under
	keys[0], p.live[0] = s.rootKey, !isDeleted(s.rootKey)
	firstLeaf := s.leafAddr(0)
	for j, addr := range p.addrs {
		if !p.live[j] {
			continue // below a deleted key: fetched, never opened
		}
		if len(boxes[j]) == 0 {
			return fmt.Errorf("securestore: reading node %d: oracle holds no block", addr)
		}
		pt, err := aead.Open(keys[j], boxes[j], nodeAD(addr))
		if err != nil {
			return fmt.Errorf("securestore: integrity failure at node %d: %w", addr, err)
		}
		s.meter.Add(meter.OpAES32, meter.AESChunks(len(pt)))
		p.pts[j] = pt
		if addr >= firstLeaf {
			continue
		}
		if len(pt) != 2*aead.KeySize {
			return fmt.Errorf("securestore: malformed interior node %d", addr)
		}
		for side, child := range [2]uint64{2 * addr, 2*addr + 1} {
			if c, ok := p.at[child]; ok {
				keys[c] = pt[side*aead.KeySize : (side+1)*aead.KeySize]
				p.live[c] = !isDeleted(keys[c])
			}
		}
	}
	if err := mutate(p); err != nil {
		return err
	}
	for j := n - 1; j >= 0; j-- {
		addr := p.addrs[j]
		if addr >= firstLeaf {
			continue
		}
		// A node orphaned by an earlier delete is rebuilt around the
		// child being revived: its other child stays deleted.
		pt := p.pts[j]
		if !p.live[j] {
			pt = make([]byte, 2*aead.KeySize)
		}
		rekeyed := false
		for side, child := range [2]uint64{2 * addr, 2*addr + 1} {
			if c, ok := p.at[child]; ok && p.newKey[c] != nil {
				copy(pt[side*aead.KeySize:], p.newKey[c])
				rekeyed = true
			}
		}
		if !rekeyed {
			continue
		}
		if p.newKey[j], err = aead.NewKey(s.rng); err != nil {
			return err
		}
		if err := s.seal(&p.out, addr, p.newKey[j], pt); err != nil {
			return err
		}
	}
	if p.newKey[0] == nil {
		return nil // nothing changed: no leaf was given a new key
	}
	if err := s.flush(&p.out); err != nil {
		return err
	}
	s.rootKey = append([]byte(nil), p.newKey[0]...)
	return nil
}

// ReadDelete is the one pass over leaves that ReadMany and DeleteMany both
// are. It loads blocks idx with one oracle exchange and hands their contents
// to visit: nil for a deleted block, non-nil (even if empty) for a live one.
// If visit reports true, the blocks still live are securely deleted in the
// same pass — their keys dropped, the union of their paths re-keyed up to a
// fresh root key, one more exchange to write it — and the old root key no
// longer exists inside the Store. If visit reports false or fails, or the
// write fails, the store is as it was. It returns how many blocks it
// deleted: blocks already deleted (or listed twice) are skipped, and if
// none is left nothing is written.
func (s *Store) ReadDelete(idx []int, visit func(blocks [][]byte) (bool, error)) (int, error) {
	deleted := 0
	err := s.update(idx, func(p *paths) error {
		blocks := make([][]byte, len(idx))
		for k, i := range idx {
			if j := s.leaf(p, i); p.live[j] {
				blocks[k] = append([]byte{}, p.pts[j]...)
			}
		}
		if del, err := visit(blocks); err != nil || !del {
			return err
		}
		for _, i := range idx {
			if j := s.leaf(p, i); p.live[j] && p.newKey[j] == nil {
				p.newKey[j] = deletedKey
				deleted++
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return deleted, nil
}

// ReadMany returns the current contents of blocks idx, nil for a deleted
// block, with one oracle exchange.
func (s *Store) ReadMany(idx []int) ([][]byte, error) {
	var out [][]byte
	_, err := s.ReadDelete(idx, func(blocks [][]byte) (bool, error) {
		out = blocks
		return false, nil
	})
	return out, err
}

// Read returns the current contents of block i. It returns ErrDeleted for
// deleted blocks and an integrity error if the provider tampered with any
// node on the path.
func (s *Store) Read(i int) ([]byte, error) {
	out, err := s.ReadMany([]int{i})
	if err != nil {
		return nil, err
	}
	if out[0] == nil {
		return nil, ErrDeleted
	}
	return out[0], nil
}

// DeleteMany securely deletes blocks idx with two oracle exchanges and
// reports how many it deleted (see ReadDelete).
func (s *Store) DeleteMany(idx []int) (int, error) {
	return s.ReadDelete(idx, func([][]byte) (bool, error) { return true, nil })
}

// Delete securely deletes block i; deleting twice is a no-op.
func (s *Store) Delete(i int) error {
	_, err := s.DeleteMany([]int{i})
	return err
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

// HeightForBlocks returns the minimal tree height for n blocks.
func HeightForBlocks(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}
