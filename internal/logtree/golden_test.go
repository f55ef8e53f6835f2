package logtree

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"
)

const goldenPath = "testdata/golden_300.txt"

// goldenEntries is the fixed 300-entry insertion sequence the golden pins.
func goldenEntries() []Entry {
	out := make([]Entry, 300)
	for i := range out {
		out[i] = Entry{ID: []byte(fmt.Sprintf("golden-user-%03d", i)), Val: []byte(fmt.Sprintf("golden-val-%03d", i))}
	}
	return out
}

// appendTrace is a plain byte walk over a trace, enough to pin every field.
func appendTrace(dst []byte, tr *Trace) []byte {
	if tr.Empty {
		return append(dst, 1)
	}
	dst = append(dst, 0)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tr.Steps)))
	for _, s := range tr.Steps {
		dst = binary.BigEndian.AppendUint16(dst, uint16(s.BitPos))
		dst = append(dst, s.Sibling[:]...)
	}
	dst = append(dst, tr.LeafKey[:]...)
	return append(dst, tr.LeafValHash[:]...)
}

func appendExtension(dst []byte, p *ExtensionProof) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(p.Inserts)))
	for _, s := range p.Inserts {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.ID)))
		dst = append(dst, s.ID...)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(s.Val)))
		dst = append(dst, s.Val...)
		dst = appendTrace(dst, s.Trace)
	}
	return dst
}

// goldenLines inserts the first 280 entries one by one, proves the last
// 20 as one extension, and then proves one inclusion and one absence.
func goldenLines(t *testing.T) []string {
	t.Helper()
	es := goldenEntries()
	tr := New()
	for _, e := range es[:280] {
		if err := tr.Insert(e.ID, e.Val); err != nil {
			t.Fatal(err)
		}
	}
	ext, err := tr.ProveExtends(es[280:])
	if err != nil {
		t.Fatal(err)
	}
	inc, err := tr.ProveIncludes(es[123].ID, es[123].Val)
	if err != nil {
		t.Fatal(err)
	}
	abs, err := tr.ProveAbsence([]byte("golden-absent"))
	if err != nil {
		t.Fatal(err)
	}
	d := tr.Digest()
	return []string{
		"digest " + hex.EncodeToString(d[:]),
		"includes " + hex.EncodeToString(appendTrace(nil, inc)),
		"absence " + hex.EncodeToString(appendTrace(nil, abs)),
		"extends " + hex.EncodeToString(appendExtension(nil, ext)),
	}
}

// TestGoldenTrie pins the digest, traces and extension proof of a fixed
// insertion sequence byte for byte: the trie's shape and hashing are part
// of what HSMs verify, so no refactor of the provider side may move them.
func TestGoldenTrie(t *testing.T) {
	got := goldenLines(t)
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, want %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			name, _, _ := strings.Cut(want[i], " ")
			t.Errorf("%s differs from the golden", name)
		}
	}
}
