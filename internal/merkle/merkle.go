package merkle

import (
	"crypto/sha256"
	"errors"
	"fmt"
)

// HashSize is the digest length.
const HashSize = sha256.Size

// Hash is a Merkle node hash.
type Hash = [HashSize]byte

// Domain-separation prefixes prevent leaf/node confusion attacks.
var (
	leafPrefix = []byte{0x00}
	nodePrefix = []byte{0x01}
)

// LeafHash hashes a leaf payload.
func LeafHash(data []byte) Hash {
	h := sha256.New()
	h.Write(leafPrefix)
	h.Write(data)
	var out Hash
	h.Sum(out[:0])
	return out
}

// nodeHash hashes an interior node.
func nodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write(nodePrefix)
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	h.Sum(out[:0])
	return out
}

// Tree is an immutable Merkle tree over a list of leaves.
type Tree struct {
	levels [][]Hash // levels[0] = leaf hashes, last level = [root]
	n      int
}

// New builds a tree over the given leaves. At least one leaf is required.
func New(leaves [][]byte) (*Tree, error) {
	if len(leaves) == 0 {
		return nil, errors.New("merkle: empty leaf set")
	}
	level := make([]Hash, len(leaves))
	for i, l := range leaves {
		level[i] = LeafHash(l)
	}
	t := &Tree{n: len(leaves)}
	t.levels = append(t.levels, level)
	for len(level) > 1 {
		next := make([]Hash, 0, (len(level)+1)/2)
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				// odd node is promoted unchanged
				next = append(next, level[i])
			}
		}
		level = next
		t.levels = append(t.levels, level)
	}
	return t, nil
}

// Root returns the tree root.
func (t *Tree) Root() Hash { return t.levels[len(t.levels)-1][0] }

// ProofStep is one level of an inclusion proof.
type ProofStep struct {
	Sibling Hash
	Right   bool // sibling sits to the right of the running hash
}

// Proof is a Merkle inclusion proof for one leaf.
type Proof struct {
	Index int
	Steps []ProofStep
}

// Prove returns the inclusion proof for leaf index i.
func (t *Tree) Prove(i int) (*Proof, error) {
	if i < 0 || i >= t.n {
		return nil, fmt.Errorf("merkle: index %d out of range [0,%d)", i, t.n)
	}
	p := &Proof{Index: i}
	idx := i
	for lvl := 0; lvl < len(t.levels)-1; lvl++ {
		level := t.levels[lvl]
		if idx%2 == 0 {
			if idx+1 < len(level) {
				p.Steps = append(p.Steps, ProofStep{Sibling: level[idx+1], Right: true})
			}
			// else: promoted, no step
		} else {
			p.Steps = append(p.Steps, ProofStep{Sibling: level[idx-1], Right: false})
		}
		idx /= 2
	}
	return p, nil
}

// Verify checks that leaf data sits at exactly index p.Index of an n-leaf
// tree with the given root. Binding the index matters: an HSM that audits
// chunk i must not accept chunk j's data in its place.
func Verify(root Hash, n int, data []byte, p *Proof) bool {
	if p == nil || p.Index < 0 || p.Index >= n {
		return false
	}
	h := LeafHash(data)
	idx, size := p.Index, n
	step := 0
	for size > 1 {
		if idx%2 == 0 && idx+1 == size {
			// lonely rightmost node is promoted; no sibling at this level
		} else {
			if step >= len(p.Steps) {
				return false
			}
			s := p.Steps[step]
			wantRight := idx%2 == 0
			if s.Right != wantRight {
				return false
			}
			if s.Right {
				h = nodeHash(h, s.Sibling)
			} else {
				h = nodeHash(s.Sibling, h)
			}
			step++
		}
		idx /= 2
		size = (size + 1) / 2
	}
	return step == len(p.Steps) && h == root
}
