package logtree

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func ids(n int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		out[i] = []byte(fmt.Sprintf("user-%d", i))
	}
	return out
}

func val(i int) []byte { return []byte(fmt.Sprintf("commit-%d", i)) }

func buildTree(t testing.TB, n int) *Tree {
	t.Helper()
	tr := New()
	for i, id := range ids(n) {
		if err := tr.Insert(id, val(i)); err != nil {
			t.Fatal(err)
		}
	}
	return tr
}

func TestEmptyDigestStable(t *testing.T) {
	if New().Digest() != EmptyDigest() {
		t.Fatal("empty tree digest != EmptyDigest")
	}
}

func TestInsertAndGet(t *testing.T) {
	tr := buildTree(t, 100)
	for i, id := range ids(100) {
		got, ok := tr.Get(id)
		if !ok || !bytes.Equal(got, val(i)) {
			t.Fatalf("Get(%s) = %q, %v", id, got, ok)
		}
	}
	if _, ok := tr.Get([]byte("nonexistent")); ok {
		t.Fatal("Get returned a value for an absent id")
	}
}

func TestDuplicateRejected(t *testing.T) {
	tr := buildTree(t, 10)
	if err := tr.Insert([]byte("user-3"), []byte("other")); err == nil {
		t.Fatal("duplicate identifier accepted")
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	// The trie is canonical: any insertion order yields the same digest.
	n := 50
	base := buildTree(t, n)
	perm := rand.New(rand.NewSource(42)).Perm(n)
	shuffled := New()
	for _, i := range perm {
		if err := shuffled.Insert(ids(n)[i], val(i)); err != nil {
			t.Fatal(err)
		}
	}
	if base.Digest() != shuffled.Digest() {
		t.Fatal("digest depends on insertion order")
	}
}

func TestDigestChangesOnInsert(t *testing.T) {
	tr := New()
	seen := map[Digest]bool{tr.Digest(): true}
	for i, id := range ids(20) {
		if err := tr.Insert(id, val(i)); err != nil {
			t.Fatal(err)
		}
		d := tr.Digest()
		if seen[d] {
			t.Fatal("digest repeated after insertion")
		}
		seen[d] = true
	}
}

func TestInclusionProofs(t *testing.T) {
	tr := buildTree(t, 64)
	d := tr.Digest()
	for i, id := range ids(64) {
		p, err := tr.ProveIncludes(id, val(i))
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyIncludes(d, id, val(i), p) {
			t.Fatalf("inclusion proof for %s rejected", id)
		}
	}
}

func TestInclusionProofWrongValueRejected(t *testing.T) {
	tr := buildTree(t, 16)
	d := tr.Digest()
	p, err := tr.ProveIncludes([]byte("user-5"), val(5))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyIncludes(d, []byte("user-5"), []byte("forged"), p) {
		t.Fatal("inclusion proof verified a forged value")
	}
	if VerifyIncludes(d, []byte("user-6"), val(5), p) {
		t.Fatal("inclusion proof verified under wrong id")
	}
}

func TestProveIncludesErrors(t *testing.T) {
	tr := buildTree(t, 4)
	if _, err := tr.ProveIncludes([]byte("ghost"), []byte("v")); err == nil {
		t.Fatal("proof produced for absent id")
	}
	if _, err := tr.ProveIncludes([]byte("user-1"), []byte("wrong")); err == nil {
		t.Fatal("proof produced for wrong value")
	}
}

func TestAbsenceProofs(t *testing.T) {
	tr := buildTree(t, 64)
	d := tr.Digest()
	for i := 0; i < 32; i++ {
		id := []byte(fmt.Sprintf("ghost-%d", i))
		p, err := tr.ProveAbsence(id)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyAbsence(d, id, p) {
			t.Fatalf("absence proof for %s rejected", id)
		}
	}
}

func TestAbsenceOfPresentIDImpossible(t *testing.T) {
	tr := buildTree(t, 64)
	d := tr.Digest()
	if _, err := tr.ProveAbsence([]byte("user-7")); err == nil {
		t.Fatal("prover produced absence proof for present id")
	}
	// A malicious prover replays some other id's trace as an absence proof:
	p, _ := tr.ProveAbsence([]byte("ghost"))
	if VerifyAbsence(d, []byte("user-7"), p) {
		t.Fatal("absence of a present id verified with a foreign trace")
	}
}

func TestAbsenceEmptyTree(t *testing.T) {
	tr := New()
	p, err := tr.ProveAbsence([]byte("anyone"))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyAbsence(tr.Digest(), []byte("anyone"), p) {
		t.Fatal("absence in empty tree rejected")
	}
}

func TestExtensionSingle(t *testing.T) {
	tr := buildTree(t, 20)
	dOld := tr.Digest()
	trace, err := tr.InsertWithProof([]byte("newcomer"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	dNew, err := ApplyExtension(dOld, []byte("newcomer"), []byte("v"), trace)
	if err != nil {
		t.Fatal(err)
	}
	if dNew != tr.Digest() {
		t.Fatal("extension verifier computed a different digest than the tree")
	}
}

func TestExtensionFromEmpty(t *testing.T) {
	tr := New()
	dOld := tr.Digest()
	trace, err := tr.InsertWithProof([]byte("first"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	dNew, err := ApplyExtension(dOld, []byte("first"), []byte("v"), trace)
	if err != nil {
		t.Fatal(err)
	}
	if dNew != tr.Digest() {
		t.Fatal("extension from empty tree mismatched")
	}
}

func TestExtensionBatch(t *testing.T) {
	tr := buildTree(t, 30)
	dOld := tr.Digest()
	var batch []Entry
	for i := 0; i < 25; i++ {
		batch = append(batch, Entry{ID: []byte(fmt.Sprintf("new-%d", i)), Val: val(i)})
	}
	proof, err := tr.ProveExtends(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyExtends(dOld, tr.Digest(), proof); err != nil {
		t.Fatal(err)
	}
}

func TestExtensionRejectsValueMutation(t *testing.T) {
	// The append-only property: the provider cannot redefine an existing
	// identifier. Any extension "proof" claiming to must fail.
	tr := buildTree(t, 30)
	dOld := tr.Digest()
	// Forge: take a genuine absence trace for a fresh id but claim it
	// inserts over an existing one.
	fresh := tr.Clone()
	trace, err := fresh.InsertWithProof([]byte("fresh"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyExtension(dOld, []byte("user-3"), []byte("mutated"), trace); err == nil {
		t.Fatal("extension rewrote an existing identifier")
	}
}

func TestExtensionRejectsWrongTarget(t *testing.T) {
	tr := buildTree(t, 10)
	dOld := tr.Digest()
	var batch []Entry
	for i := 0; i < 5; i++ {
		batch = append(batch, Entry{ID: []byte(fmt.Sprintf("n-%d", i)), Val: val(i)})
	}
	proof, err := tr.ProveExtends(batch)
	if err != nil {
		t.Fatal(err)
	}
	var bogus Digest
	bogus[0] = 0xFF
	if err := VerifyExtends(dOld, bogus, proof); err == nil {
		t.Fatal("extension proof verified against a bogus target digest")
	}
	if err := VerifyExtends(bogus, tr.Digest(), proof); err == nil {
		t.Fatal("extension proof verified against a bogus source digest")
	}
}

func TestExtensionRejectsDroppedEntry(t *testing.T) {
	// Dropping an entry from the middle of a batch must invalidate it.
	tr := buildTree(t, 10)
	dOld := tr.Digest()
	var batch []Entry
	for i := 0; i < 6; i++ {
		batch = append(batch, Entry{ID: []byte(fmt.Sprintf("n-%d", i)), Val: val(i)})
	}
	proof, err := tr.ProveExtends(batch)
	if err != nil {
		t.Fatal(err)
	}
	dropped := &ExtensionProof{Inserts: append(append([]InsertStep{}, proof.Inserts[:2]...), proof.Inserts[3:]...)}
	if err := VerifyExtends(dOld, tr.Digest(), dropped); err == nil {
		t.Fatal("extension proof with dropped entry verified")
	}
}

func TestTraceTamperRejected(t *testing.T) {
	tr := buildTree(t, 32)
	d := tr.Digest()
	p, _ := tr.ProveIncludes([]byte("user-9"), val(9))
	if len(p.Steps) == 0 {
		t.Skip("degenerate tree shape")
	}
	p.Steps[0].Sibling[3] ^= 1
	if VerifyIncludes(d, []byte("user-9"), val(9), p) {
		t.Fatal("tampered trace accepted")
	}
}

func TestTraceStepOrderEnforced(t *testing.T) {
	tr := buildTree(t, 32)
	d := tr.Digest()
	id := []byte("ghost")
	p, _ := tr.ProveAbsence(id)
	if len(p.Steps) < 2 {
		t.Skip("trace too short to scramble")
	}
	p.Steps[0], p.Steps[1] = p.Steps[1], p.Steps[0]
	if VerifyAbsence(d, id, p) {
		t.Fatal("trace with non-canonical step order accepted")
	}
}

func TestNilAndEmptyTraces(t *testing.T) {
	d := EmptyDigest()
	if VerifyIncludes(d, []byte("x"), []byte("y"), nil) {
		t.Fatal("nil inclusion trace accepted")
	}
	if VerifyAbsence(d, []byte("x"), nil) {
		t.Fatal("nil absence trace accepted")
	}
	if err := VerifyExtends(d, d, nil); err == nil {
		t.Fatal("nil extension proof accepted")
	}
	if VerifyIncludes(d, []byte("x"), []byte("y"), &Trace{Empty: true}) {
		t.Fatal("empty-tree inclusion accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	tr := buildTree(t, 10)
	before := tr.Digest()
	c := tr.Clone()
	if c.Digest() != before {
		t.Fatal("clone digest differs")
	}
	// Clone → original: an insertion into the clone leaves the original as
	// it was.
	if err := c.Insert([]byte("only-in-clone"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if c.Digest() == before {
		t.Fatal("clone insertion did not move the clone's digest")
	}
	if tr.Digest() != before || tr.Len() != 10 {
		t.Fatal("clone insertion moved the original")
	}
	if _, ok := tr.Get([]byte("only-in-clone")); ok {
		t.Fatal("clone mutation leaked into original")
	}
	// Original → clone: an insertion into the original leaves the clone
	// as it was, and the same id may then enter the original with another
	// value.
	cloneDigest := c.Digest()
	if err := tr.Insert([]byte("only-in-original"), []byte("w")); err != nil {
		t.Fatal(err)
	}
	if err := tr.Insert([]byte("only-in-clone"), []byte("other")); err != nil {
		t.Fatal(err)
	}
	if c.Digest() != cloneDigest || c.Len() != 11 {
		t.Fatal("original insertion moved the clone")
	}
	if _, ok := c.Get([]byte("only-in-original")); ok {
		t.Fatal("original mutation leaked into clone")
	}
	if v, _ := c.Get([]byte("only-in-clone")); !bytes.Equal(v, []byte("v")) {
		t.Fatalf("clone's value overwritten: %q", v)
	}
	for _, x := range []*Tree{tr, c} {
		if x.Digest() != rebuild(x).Digest() {
			t.Fatal("tree digest differs from a rebuild of its entries")
		}
	}
}

// rebuild is the deep copy Clone used to be: a fresh tree with every entry
// re-inserted in order. The persistent trie must match it exactly.
func rebuild(t *Tree) *Tree {
	c := New()
	for _, e := range t.Entries() {
		if err := c.Insert(e.ID, e.Val); err != nil {
			panic("logtree: rebuild of well-formed tree failed: " + err.Error())
		}
	}
	return c
}

// TestPersistentMatchesRebuild runs random interleavings of clone, insert
// on a clone, insert on an original and abandon, and checks every live
// tree against a rebuild of its own entries: the entries, the digest, and
// the traces for present and absent ids.
func TestPersistentMatchesRebuild(t *testing.T) {
	type live struct {
		tree    *Tree
		entries []Entry // what the tree should hold, in order
	}
	rng := rand.New(rand.NewSource(34))
	pool := ids(150) // shared, so ids collide across diverged trees
	trees := []*live{{tree: New()}}
	check := func(step int, l *live) {
		t.Helper()
		if got := l.tree.Entries(); len(got) != len(l.entries) || len(got) > 0 && !reflect.DeepEqual(got, l.entries) {
			t.Fatalf("step %d: entries differ from the model", step)
		}
		ref := rebuild(l.tree)
		if l.tree.Digest() != ref.Digest() {
			t.Fatalf("step %d: digest differs from rebuild", step)
		}
		for _, id := range pool[:40] {
			if want, ok := ref.Get(id); ok {
				got, err := l.tree.ProveIncludes(id, want)
				exp, _ := ref.ProveIncludes(id, want)
				if err != nil || !reflect.DeepEqual(got, exp) {
					t.Fatalf("step %d: inclusion trace for %s differs from rebuild", step, id)
				}
			} else {
				got, err := l.tree.ProveAbsence(id)
				exp, _ := ref.ProveAbsence(id)
				if err != nil || !reflect.DeepEqual(got, exp) {
					t.Fatalf("step %d: absence trace for %s differs from rebuild", step, id)
				}
			}
		}
	}
	for step := 0; step < 600; step++ {
		l := trees[rng.Intn(len(trees))]
		switch op := rng.Intn(10); {
		case op < 2 && len(trees) < 8:
			trees = append(trees, &live{tree: l.tree.Clone(), entries: append([]Entry(nil), l.entries...)})
		case op == 2 && len(trees) > 1:
			i := rng.Intn(len(trees))
			trees = append(trees[:i], trees[i+1:]...)
		default:
			id, v := pool[rng.Intn(len(pool))], []byte(fmt.Sprintf("v-%d", step))
			_, had := l.tree.Get(id)
			ref := rebuild(l.tree)
			tr, err := l.tree.InsertWithProof(id, v)
			if had {
				if !errors.Is(err, ErrDuplicate) {
					t.Fatalf("step %d: duplicate %s not refused: %v", step, id, err)
				}
				break
			}
			exp, _ := ref.InsertWithProof(id, v)
			if err != nil || !reflect.DeepEqual(tr, exp) {
				t.Fatalf("step %d: extension trace for %s differs from rebuild: %v", step, id, err)
			}
			l.entries = append(l.entries, Entry{ID: id, Val: v})
		}
		if step%10 == 0 {
			for _, l := range trees {
				check(step, l)
			}
		}
	}
}

func TestQuickInsertLookupDigest(t *testing.T) {
	// Property: for random key/value sets, (a) all inserted pairs prove
	// inclusion, (b) random absent keys prove absence, (c) replaying the
	// entries reproduces the digest.
	cfg := &quick.Config{MaxCount: 25}
	err := quick.Check(func(keys [][]byte, probe []byte) bool {
		tr := New()
		inserted := map[string]bool{}
		for i, k := range keys {
			if inserted[string(k)] {
				continue
			}
			if err := tr.Insert(k, val(i)); err != nil {
				return false
			}
			inserted[string(k)] = true
		}
		d := tr.Digest()
		for i, k := range keys {
			if !inserted[string(k)] {
				continue
			}
			_ = i
			v, ok := tr.Get(k)
			if !ok {
				return false
			}
			p, err := tr.ProveIncludes(k, v)
			if err != nil || !VerifyIncludes(d, k, v, p) {
				return false
			}
		}
		if !inserted[string(probe)] {
			p, err := tr.ProveAbsence(probe)
			if err != nil || !VerifyAbsence(d, probe, p) {
				return false
			}
		}
		// replay check (the external-auditor path)
		replay := New()
		for _, e := range tr.Entries() {
			if err := replay.Insert(e.ID, e.Val); err != nil {
				return false
			}
		}
		return replay.Digest() == d
	}, cfg)
	if err != nil {
		t.Fatal(err)
	}
}

func TestLargeTree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tr := buildTree(t, 20000)
	d := tr.Digest()
	p, err := tr.ProveIncludes([]byte("user-19999"), val(19999))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyIncludes(d, []byte("user-19999"), val(19999), p) {
		t.Fatal("large-tree inclusion failed")
	}
	// Path length should be O(log n), far below the 256-bit bound.
	if len(p.Steps) > 64 {
		t.Fatalf("path length %d suspiciously long for 20K entries", len(p.Steps))
	}
}

func BenchmarkInsert10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tr := New()
		for j := 0; j < 10000; j++ {
			if err := tr.Insert([]byte(fmt.Sprintf("u-%d", j)), []byte("v")); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkProveVerifyInclusion(b *testing.B) {
	tr := buildTree(b, 100000)
	d := tr.Digest()
	all := ids(100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := all[i%100000]
		p, err := tr.ProveIncludes(id, val(i%100000))
		if err != nil {
			b.Fatal(err)
		}
		if !VerifyIncludes(d, id, val(i%100000), p) {
			b.Fatal("verify failed")
		}
	}
}

func BenchmarkExtensionStep(b *testing.B) {
	tr := buildTree(b, 100000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := []byte(fmt.Sprintf("bench-%d", i))
		dOld := tr.Digest()
		trace, err := tr.InsertWithProof(id, []byte("v"))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ApplyExtension(dOld, id, []byte("v"), trace); err != nil {
			b.Fatal(err)
		}
	}
}
