package prg

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
)

// PRG is a deterministic stream of pseudorandom bytes derived from a seed and
// a domain-separation label. It implements io.Reader and never returns an
// error.
type PRG struct {
	key     []byte // HMAC key: SHA-256(label || seed)
	block   [sha256.Size]byte
	used    int    // bytes of block already consumed
	counter uint64 // next block index
}

// New returns a PRG seeded with seed under the given domain-separation label.
// Two PRGs agree on their output streams iff both label and seed match.
func New(label string, seed []byte) *PRG {
	h := sha256.New()
	h.Write([]byte(label))
	h.Write([]byte{0})
	h.Write(seed)
	g := &PRG{key: h.Sum(nil)}
	g.used = len(g.block) // force refill on first read
	return g
}

// refill computes the next HMAC block.
func (g *PRG) refill() {
	mac := hmac.New(sha256.New, g.key)
	var ctr [8]byte
	binary.BigEndian.PutUint64(ctr[:], g.counter)
	mac.Write(ctr[:])
	mac.Sum(g.block[:0])
	g.counter++
	g.used = 0
}

// Read fills p with pseudorandom bytes. It always returns len(p), nil.
func (g *PRG) Read(p []byte) (int, error) {
	n := len(p)
	for len(p) > 0 {
		if g.used == len(g.block) {
			g.refill()
		}
		c := copy(p, g.block[g.used:])
		g.used += c
		p = p[c:]
	}
	return n, nil
}

// Uint64 returns the next 8 bytes of the stream as a big-endian uint64.
func (g *PRG) Uint64() uint64 {
	var b [8]byte
	g.Read(b[:])
	return binary.BigEndian.Uint64(b[:])
}

// Intn returns a uniform value in [0, n) by rejection sampling, so the
// distribution is exactly uniform for every n > 0.
func (g *PRG) Intn(n int) int {
	if n <= 0 {
		panic("prg: Intn called with non-positive n")
	}
	max := uint64(n)
	// Largest multiple of max that fits in a uint64; values at or above it
	// are rejected to avoid modulo bias.
	limit := (^uint64(0) / max) * max
	for {
		v := g.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// Indices deterministically samples n distinct indices in [0, total) from the
// PRG stream, in sampling order. It is the Select() primitive of
// location-hiding encryption: the same (label, seed) always yields the same
// cluster.
//
// The paper samples a list in [N]^n with replacement; sampling without
// replacement strictly improves fault tolerance (no HSM holds two shares) and
// the covering analysis of Lemma 8 still applies. See DESIGN.md.
func Indices(label string, seed []byte, n, total int) ([]int, error) {
	if n > total {
		return nil, fmt.Errorf("prg: cannot sample %d distinct indices from %d", n, total)
	}
	if n < 0 {
		return nil, fmt.Errorf("prg: negative sample count %d", n)
	}
	g := New(label, seed)
	out := make([]int, 0, n)
	seen := make(map[int]bool, n)
	for len(out) < n {
		v := g.Intn(total)
		if seen[v] {
			continue
		}
		seen[v] = true
		out = append(out, v)
	}
	return out, nil
}

var _ io.Reader = (*PRG)(nil)
