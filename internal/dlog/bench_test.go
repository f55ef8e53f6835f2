package dlog

import (
	"fmt"
	"testing"

	"safetypin/internal/logtree"
)

// benchEntries returns n distinct entries under prefix.
func benchEntries(prefix string, n int) []logtree.Entry {
	out := make([]logtree.Entry, n)
	for i := range out {
		out[i] = logtree.Entry{ID: []byte(fmt.Sprintf("%s-%07d", prefix, i)), Val: []byte(fmt.Sprintf("val-%07d", i))}
	}
	return out
}

// benchProvider returns a provider with committed entries and a pending
// batch, in the epoch_fleet shape: 128 chunks, two audits per HSM.
func benchProvider(b *testing.B, committed, pending int) *Provider {
	b.Helper()
	p := NewProvider(Config{NumChunks: 128, AuditsPerHSM: 2})
	for _, e := range benchEntries("committed", committed) {
		if err := p.RestoreCommitted(e.ID, e.Val); err != nil {
			b.Fatal(err)
		}
	}
	for _, e := range benchEntries("pending", pending) {
		if err := p.Append(e.ID, e.Val); err != nil {
			b.Fatal(err)
		}
	}
	return p
}

// BenchmarkDecodeChunkRecord decodes every leaf of one staged 64-insert
// epoch over a 1,024-entry log in turn, as the HSMs of a fleet do.
func BenchmarkDecodeChunkRecord(b *testing.B) {
	p := benchProvider(b, 1024, 64)
	if _, err := p.BuildEpoch(); err != nil {
		b.Fatal(err)
	}
	leaves := p.staged.leafBytes
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeChunkRecord(leaves[i%len(leaves)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBuildEpoch stages a 64-insert batch over a committed log of L
// entries. An epoch's cost should not grow with L.
func BenchmarkBuildEpoch(b *testing.B) {
	for _, l := range []int{0, 100000} {
		b.Run(fmt.Sprintf("L=%d", l), func(b *testing.B) {
			p := benchProvider(b, l, 64)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.BuildEpoch(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreCommit replays a journal of 200 epochs of 64 insertions
// each into a fresh provider, checking every epoch's digest as recovery
// does.
func BenchmarkRestoreCommit(b *testing.B) {
	const epochs, batch = 200, 64
	entries := benchEntries("journaled", epochs*batch)
	ref := logtree.New()
	digests := make([]logtree.Digest, epochs)
	for e := range digests {
		for _, x := range entries[e*batch : (e+1)*batch] {
			if err := ref.Insert(x.ID, x.Val); err != nil {
				b.Fatal(err)
			}
		}
		digests[e] = ref.Digest()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := NewProvider(Config{NumChunks: 128})
		for e, d := range digests {
			for _, x := range entries[e*batch : (e+1)*batch] {
				if err := p.RestoreAppend(x.ID, x.Val); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.RestoreCommit(batch, uint64(e+1), d); err != nil {
				b.Fatal(err)
			}
		}
	}
}
