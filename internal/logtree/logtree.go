package logtree

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
)

// Digest is the constant-size commitment to a log.
type Digest [sha256.Size]byte

// KeyHash is the hashed identifier that keys the trie.
type KeyHash [sha256.Size]byte

// Entry is one identifier→value pair.
type Entry struct {
	ID  []byte
	Val []byte
}

// domain-separation tags
var (
	tagEmpty  = []byte("safetypin/logtree/empty/v1")
	tagLeaf   = []byte{0x00}
	tagBranch = []byte{0x01}
	tagKey    = []byte("safetypin/logtree/key/v1")
	tagVal    = []byte("safetypin/logtree/val/v1")
)

// EmptyDigest returns the digest of the empty log.
func EmptyDigest() Digest { return sha256.Sum256(tagEmpty) }

// HashID maps an identifier to its trie key.
func HashID(id []byte) KeyHash {
	h := sha256.New()
	h.Write(tagKey)
	h.Write(id)
	var out KeyHash
	h.Sum(out[:0])
	return out
}

// HashVal commits to a value.
func HashVal(val []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(tagVal)
	h.Write(val)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// bit returns bit i (MSB-first) of k.
func bit(k KeyHash, i int) byte {
	return (k[i/8] >> (7 - uint(i)%8)) & 1
}

// firstDiffBit returns the index of the first differing bit, or -1 if equal.
func firstDiffBit(a, b KeyHash) int {
	for i := 0; i < len(a); i++ {
		if x := a[i] ^ b[i]; x != 0 {
			off := 0
			for x&0x80 == 0 {
				x <<= 1
				off++
			}
			return i*8 + off
		}
	}
	return -1
}

func leafHash(key KeyHash, valHash [sha256.Size]byte) Digest {
	h := sha256.New()
	h.Write(tagLeaf)
	h.Write(key[:])
	h.Write(valHash[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

func branchHash(bitPos int, left, right Digest) Digest {
	h := sha256.New()
	h.Write(tagBranch)
	var b [2]byte
	binary.BigEndian.PutUint16(b[:], uint16(bitPos))
	h.Write(b[:])
	h.Write(left[:])
	h.Write(right[:])
	var out Digest
	h.Sum(out[:0])
	return out
}

// node is either a leaf (children nil) or a branch at bit position bitPos.
// Nodes are immutable once reachable from a root: an insertion copies the
// branches on its search path, so trees that share a subtree never see
// each other's insertions.
type node struct {
	// branch fields
	bitPos      int
	left, right *node
	// leaf fields, nil on a branch
	*leafData
	// cached hash
	hash Digest
}

// leafData is what a leaf holds: the entry, its key and value hash, and
// the leaf inserted before it, which threads the leaves in insertion order.
type leafData struct {
	entry   Entry
	key     KeyHash
	valHash [sha256.Size]byte
	prev    *node
}

func (n *node) isLeaf() bool { return n.left == nil }

// child returns branch n's child on key's side, and the other child.
func (n *node) child(key KeyHash) (next, sibling *node) {
	if bit(key, n.bitPos) == 0 {
		return n.left, n.right
	}
	return n.right, n.left
}

func (n *node) rehash() {
	if n.isLeaf() {
		n.hash = leafHash(n.key, n.valHash)
	} else {
		n.hash = branchHash(n.bitPos, n.left.hash, n.right.hash)
	}
}

// Tree is the provider-side log: the Merkle trie, whose leaves hold the
// entries and are threaded in insertion order. The trie is persistent:
// Clone shares it, and each insertion path-copies, so a clone and its
// original diverge in O(log n) per insertion.
type Tree struct {
	root *node
	last *node // the leaf inserted last
	n    int
}

// New returns an empty log.
func New() *Tree { return &Tree{} }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.n }

// Entries returns the log contents in insertion order, in a fresh slice.
// External auditors replay this list to re-derive the digest (§6.3). The
// entries' bytes alias internal storage and must not be modified.
func (t *Tree) Entries() []Entry {
	out := make([]Entry, t.n)
	for i, l := t.n-1, t.last; l != nil; i, l = i-1, l.prev {
		out[i] = l.entry
	}
	return out
}

// Digest returns the current log digest.
func (t *Tree) Digest() Digest {
	if t.root == nil {
		return EmptyDigest()
	}
	return t.root.hash
}

// Get returns the value stored for id.
func (t *Tree) Get(id []byte) ([]byte, bool) {
	key := HashID(id)
	if leaf, _ := t.lookupLeaf(key); leaf != nil && leaf.key == key {
		return leaf.entry.Val, true
	}
	return nil, false
}

// lookupLeaf walks the trie by key bits and returns the reached leaf and the
// search path (branches from root downward). Returns nil leaf for an empty
// tree.
func (t *Tree) lookupLeaf(key KeyHash) (*node, []*node) {
	path := make([]*node, 0, 32) // the depth is about log₂ n
	cur := t.root
	for cur != nil && !cur.isLeaf() {
		path = append(path, cur)
		cur, _ = cur.child(key)
	}
	return cur, path
}

// ErrDuplicate is returned when inserting an identifier that already exists.
var ErrDuplicate = errors.New("logtree: identifier already defined")

// Insert adds (id, val) to the log, returning ErrDuplicate if the
// identifier is already present.
func (t *Tree) Insert(id, val []byte) error {
	_, err := t.InsertWithProof(id, val)
	return err
}

// InsertWithProof inserts (id, val) and returns the absence trace of id in
// the pre-insertion tree — exactly the extension proof for this single
// insertion (§B.2's ProveExtends, one entry at a time). It copies the
// branches from the root down to the attachment point and mutates no node,
// so every other tree sharing this one's nodes is unaffected.
func (t *Tree) InsertWithProof(id, val []byte) (*Trace, error) {
	key := HashID(id)
	leaf, path := t.lookupLeaf(key)
	if leaf != nil && leaf.key == key {
		return nil, fmt.Errorf("%w: %q", ErrDuplicate, string(id))
	}
	trace := traceOf(key, leaf, path)

	newLeaf := &node{leafData: &leafData{
		entry:   Entry{ID: append([]byte(nil), id...), Val: append([]byte(nil), val...)},
		key:     key,
		valHash: HashVal(val),
		prev:    t.last,
	}}
	newLeaf.rehash()

	if t.root == nil {
		t.root = newLeaf
	} else {
		d := firstDiffBit(key, leaf.key)
		// Find the attachment point: the first node on the path whose
		// branch bit exceeds d (the new branch goes above it); if none, the
		// reached leaf is the sibling.
		attachAt := len(path) // index into path of first branch with bitPos > d
		for i, b := range path {
			if b.bitPos > d {
				attachAt = i
				break
			}
		}
		var sibling *node
		if attachAt == len(path) {
			sibling = leaf
		} else {
			sibling = path[attachAt]
		}
		nb := &node{bitPos: d}
		if bit(key, d) == 0 {
			nb.left, nb.right = newLeaf, sibling
		} else {
			nb.left, nb.right = sibling, newLeaf
		}
		nb.rehash()
		child := nb
		for i := attachAt - 1; i >= 0; i-- {
			c := *path[i]
			if bit(key, c.bitPos) == 0 {
				c.left = child
			} else {
				c.right = child
			}
			c.rehash()
			child = &c
		}
		t.root = child
	}
	t.last = newLeaf
	t.n++
	return trace, nil
}

// Trace is a verifiable search path for an identifier: the branch steps from
// the root down to the reached leaf. The same structure serves as an
// inclusion proof (the leaf matches the id) and an absence proof (it does
// not), and drives extension verification.
type Trace struct {
	Empty bool // tree was empty: no steps, no leaf
	// Steps from root downward. Direction at each step is implied by the
	// queried key's bit at BitPos.
	Steps []TraceStep
	// The leaf reached by the search.
	LeafKey     KeyHash
	LeafValHash [sha256.Size]byte
}

// TraceStep is one branch on the search path.
type TraceStep struct {
	BitPos  int
	Sibling Digest // hash of the child not taken
}

// traceOf builds the trace for key from the leaf and search path that
// lookupLeaf returned.
func traceOf(key KeyHash, leaf *node, path []*node) *Trace {
	if leaf == nil {
		return &Trace{Empty: true}
	}
	tr := &Trace{LeafKey: leaf.key, LeafValHash: leaf.valHash, Steps: make([]TraceStep, 0, len(path))}
	for _, b := range path {
		_, sib := b.child(key)
		tr.Steps = append(tr.Steps, TraceStep{BitPos: b.bitPos, Sibling: sib.hash})
	}
	return tr
}

// ProveIncludes returns an inclusion proof for (id, val), or an error if the
// pair is not in the log.
func (t *Tree) ProveIncludes(id, val []byte) (*Trace, error) {
	key := HashID(id)
	leaf, path := t.lookupLeaf(key)
	if leaf == nil || leaf.key != key || !bytes.Equal(leaf.entry.Val, val) {
		return nil, errors.New("logtree: pair not in log")
	}
	return traceOf(key, leaf, path), nil
}

// ProveAbsence returns an absence proof for id, or an error if present.
func (t *Tree) ProveAbsence(id []byte) (*Trace, error) {
	key := HashID(id)
	leaf, path := t.lookupLeaf(key)
	if leaf != nil && leaf.key == key {
		return nil, errors.New("logtree: identifier is present")
	}
	return traceOf(key, leaf, path), nil
}

// foldTrace checks the structural validity of a trace for key and returns
// the root digest it implies. Validity: branch bits strictly increase
// downward, and the fold of leaf + siblings reproduces a single root.
func foldTrace(key KeyHash, tr *Trace) (Digest, error) {
	if tr == nil {
		return Digest{}, errors.New("logtree: nil trace")
	}
	if tr.Empty {
		if len(tr.Steps) != 0 {
			return Digest{}, errors.New("logtree: empty trace with steps")
		}
		return EmptyDigest(), nil
	}
	prev := -1
	for _, s := range tr.Steps {
		if s.BitPos <= prev || s.BitPos >= 8*sha256.Size {
			return Digest{}, fmt.Errorf("logtree: non-canonical step order at bit %d", s.BitPos)
		}
		prev = s.BitPos
	}
	h := leafHash(tr.LeafKey, tr.LeafValHash)
	for i := len(tr.Steps) - 1; i >= 0; i-- {
		s := tr.Steps[i]
		if bit(key, s.BitPos) == 0 {
			h = branchHash(s.BitPos, h, s.Sibling)
		} else {
			h = branchHash(s.BitPos, s.Sibling, h)
		}
	}
	return h, nil
}

// leafConsistent reports whether the reached leaf could legitimately lie on
// the search path for key: the leaf's key must agree with the queried key on
// every bit position tested along the path.
func leafConsistent(key KeyHash, tr *Trace) bool {
	for _, s := range tr.Steps {
		if bit(key, s.BitPos) != bit(tr.LeafKey, s.BitPos) {
			return false
		}
	}
	return true
}

// VerifyIncludes checks an inclusion proof for (id, val) against digest d.
func VerifyIncludes(d Digest, id, val []byte, tr *Trace) bool {
	key := HashID(id)
	if tr == nil || tr.Empty {
		return false
	}
	if tr.LeafKey != key || tr.LeafValHash != HashVal(val) {
		return false
	}
	root, err := foldTrace(key, tr)
	return err == nil && root == d
}

// VerifyAbsence checks an absence proof for id against digest d.
func VerifyAbsence(d Digest, id []byte, tr *Trace) bool {
	key := HashID(id)
	if tr == nil {
		return false
	}
	if !tr.Empty {
		if tr.LeafKey == key {
			return false // the search reached id's own leaf: it is present
		}
		if !leafConsistent(key, tr) {
			return false // not the canonical search path for key
		}
	}
	root, err := foldTrace(key, tr)
	return err == nil && root == d
}

// ApplyExtension verifies that tr proves id absent from the log with digest
// d, then computes and returns the unique digest of that log with (id, val)
// inserted. This is the verifier side of a single-insertion extension proof
// (DoesExtend for one entry).
func ApplyExtension(d Digest, id, val []byte, tr *Trace) (Digest, error) {
	key := HashID(id)
	if !VerifyAbsence(d, id, tr) {
		return Digest{}, errors.New("logtree: invalid absence proof for extension")
	}
	newLeaf := leafHash(key, HashVal(val))
	if tr.Empty {
		return newLeaf, nil
	}
	dBit := firstDiffBit(key, tr.LeafKey)
	if dBit < 0 {
		return Digest{}, errors.New("logtree: extension for already-present key")
	}
	// Fold the sub-path strictly below the new branch (steps with BitPos >
	// dBit) to get the sibling subtree's hash.
	split := len(tr.Steps)
	for i, s := range tr.Steps {
		if s.BitPos > dBit {
			split = i
			break
		}
	}
	sub := leafHash(tr.LeafKey, tr.LeafValHash)
	for i := len(tr.Steps) - 1; i >= split; i-- {
		s := tr.Steps[i]
		if bit(key, s.BitPos) == 0 {
			sub = branchHash(s.BitPos, sub, s.Sibling)
		} else {
			sub = branchHash(s.BitPos, s.Sibling, sub)
		}
	}
	var h Digest
	if bit(key, dBit) == 0 {
		h = branchHash(dBit, newLeaf, sub)
	} else {
		h = branchHash(dBit, sub, newLeaf)
	}
	for i := split - 1; i >= 0; i-- {
		s := tr.Steps[i]
		if bit(key, s.BitPos) == 0 {
			h = branchHash(s.BitPos, h, s.Sibling)
		} else {
			h = branchHash(s.BitPos, s.Sibling, h)
		}
	}
	return h, nil
}

// ExtensionProof proves that a sequence of insertions transforms one digest
// into another: one Trace per inserted entry, each against the intermediate
// tree.
type ExtensionProof struct {
	Inserts []InsertStep
}

// InsertStep is one logged insertion with its absence trace.
type InsertStep struct {
	ID, Val []byte
	Trace   *Trace
}

// ProveExtends inserts the batch into the tree and returns the extension
// proof from the pre-batch digest to the post-batch digest.
func (t *Tree) ProveExtends(batch []Entry) (*ExtensionProof, error) {
	p := &ExtensionProof{}
	for _, e := range batch {
		tr, err := t.InsertWithProof(e.ID, e.Val)
		if err != nil {
			return nil, err
		}
		p.Inserts = append(p.Inserts, InsertStep{ID: e.ID, Val: e.Val, Trace: tr})
	}
	return p, nil
}

// VerifyExtends checks that applying the proof's insertions to digest dOld
// yields digest dNew (DoesExtend of §6.1).
func VerifyExtends(dOld, dNew Digest, p *ExtensionProof) error {
	if p == nil {
		return errors.New("logtree: nil extension proof")
	}
	d := dOld
	for i, step := range p.Inserts {
		next, err := ApplyExtension(d, step.ID, step.Val, step.Trace)
		if err != nil {
			return fmt.Errorf("logtree: extension step %d: %w", i, err)
		}
		d = next
	}
	if d != dNew {
		return errors.New("logtree: extension proof does not reach claimed digest")
	}
	return nil
}

// Clone returns an independent copy of the log in O(1): the copy shares
// every node, and insertions never mutate a node. The provider stages
// epoch updates on a clone without touching the served state.
func (t *Tree) Clone() *Tree {
	c := *t
	return &c
}
