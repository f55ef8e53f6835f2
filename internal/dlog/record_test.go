package dlog

import (
	"bytes"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"safetypin/internal/merkle"
)

const (
	goldenV2Path  = "testdata/chunk_record_v2.hex"
	goldenGobPath = "testdata/chunk_record_gob.hex"
)

// goldenLeaf stages the golden epoch, five insertions over two chunks, and
// returns chunk 1's leaf: three inserts, the first against a non-empty
// tree. The gob golden is this same record under the old leaf encoding.
func goldenLeaf(t testing.TB) []byte {
	t.Helper()
	p := NewProvider(Config{NumChunks: 2})
	for i := 0; i < 5; i++ {
		if err := p.Append([]byte(fmt.Sprintf("golden-user-%d", i)), []byte(fmt.Sprintf("golden-val-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.BuildEpoch(); err != nil {
		t.Fatal(err)
	}
	return p.staged.leafBytes[1]
}

func readHex(t testing.TB, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestChunkRecordGolden pins the leaf layout byte for byte: HSMs hash these
// bytes into the header root, so provider and HSMs must agree on them.
func TestChunkRecordGolden(t *testing.T) {
	leaf := goldenLeaf(t)
	want := readHex(t, goldenV2Path)
	if !bytes.Equal(leaf, want) {
		t.Fatalf("chunk record encoding moved:\n got %x\nwant %x", leaf, want)
	}
	rec, err := decodeChunkRecord(want)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Index != 1 || len(rec.Proof.Inserts) != 3 || rec.Proof.Inserts[0].Trace.Empty {
		t.Fatalf("golden decodes to index %d with %d inserts", rec.Index, len(rec.Proof.Inserts))
	}
	if !bytes.Equal(appendChunkRecord(nil, rec), want) {
		t.Fatal("golden does not re-encode to itself")
	}
}

// TestChunkRecordRejectsGob: a leaf in the old gob encoding, generated by
// the last release that wrote it, must not decode.
func TestChunkRecordRejectsGob(t *testing.T) {
	if _, err := decodeChunkRecord(readHex(t, goldenGobPath)); err == nil {
		t.Fatal("gob-encoded chunk record accepted")
	}
}

// FuzzDecodeChunkRecord: the decoder never panics, and everything it
// accepts is canonical. The seed corpus in testdata/fuzz holds both
// goldens, truncations, a trailing byte, an empty-trace flag of 2 and
// counts of 2³²−1.
func FuzzDecodeChunkRecord(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, err := decodeChunkRecord(b)
		if err != nil {
			return
		}
		if got := appendChunkRecord(nil, rec); !bytes.Equal(got, b) {
			t.Fatalf("accepted non-canonical input:\n  in %x\n out %x", b, got)
		}
	})
}

// TestAuditorRefusesGobLeaves: a provider that commits an epoch's records
// in the old gob encoding gets no signature, and the same epoch with v2
// leaves does, so the refusal is the encoding's.
func TestAuditorRefusesGobLeaves(t *testing.T) {
	f := newFixture(t, testCfg(), 4)
	for i := 0; i < 10; i++ {
		if err := f.provider.Append([]byte(fmt.Sprintf("user-%d", i)), []byte("h")); err != nil {
			t.Fatal(err)
		}
	}
	hdr, err := f.provider.BuildEpoch()
	if err != nil {
		t.Fatal(err)
	}
	var leaves [][]byte
	for _, leaf := range f.provider.staged.leafBytes {
		rec, err := decodeChunkRecord(leaf)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
			t.Fatal(err)
		}
		leaves = append(leaves, buf.Bytes())
	}
	mtree, err := merkle.New(leaves)
	if err != nil {
		t.Fatal(err)
	}
	gobHdr := hdr
	gobHdr.Root = mtree.Root()
	evidence := func(idx int) ChunkEvidence {
		proof, err := mtree.Prove(idx)
		if err != nil {
			t.Fatal(err)
		}
		return ChunkEvidence{LeafBytes: leaves[idx], Proof: proof}
	}

	a := f.auditors[0]
	chunks, err := a.ChooseChunks(gobHdr)
	if err != nil {
		t.Fatal(err)
	}
	pkg := &AuditPackage{Header: gobHdr}
	for _, idx := range chunks {
		pkg.Chunks = append(pkg.Chunks, evidence(idx))
		nb := ChunkEvidence{}
		if idx > 0 {
			nb = evidence(idx - 1)
		}
		pkg.Neighbors = append(pkg.Neighbors, nb)
	}
	if _, err := a.HandleAudit(pkg); err == nil || !strings.Contains(err.Error(), "malformed chunk record") {
		t.Fatalf("auditor did not refuse gob leaves: %v", err)
	}

	chunks, err = a.ChooseChunks(hdr)
	if err != nil {
		t.Fatal(err)
	}
	honest, err := f.provider.AuditPackageFor(chunks)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.HandleAudit(honest); err != nil {
		t.Fatalf("auditor refused the same epoch with v2 leaves: %v", err)
	}
}
