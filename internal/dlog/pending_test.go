package dlog

import (
	"errors"
	"fmt"
	"testing"

	"safetypin/internal/logtree"
)

func pendingIDs(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s-%d", prefix, i)
	}
	return out
}

func appendAll(t *testing.T, p *Provider, ids []string) {
	t.Helper()
	for _, id := range ids {
		if err := p.Append([]byte(id), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPendingSetFollowsEveryCut cuts the pending batch along every path
// that shortens it, and checks afterwards that the duplicate set holds
// exactly the ids still pending: a pending or committed id is refused, and
// an id that was dropped uncommitted can be appended again.
func TestPendingSetFollowsEveryCut(t *testing.T) {
	digestOf := func(ids []string) logtree.Digest {
		tr := logtree.New()
		for _, id := range ids {
			if err := tr.Insert([]byte(id), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
		return tr.Digest()
	}
	first, rest := pendingIDs("first", 6), pendingIDs("rest", 3)
	cases := []struct {
		name string
		// cut leaves rest pending and returns the ids now committed and
		// those dropped uncommitted.
		cut func(t *testing.T, f *fixture) (committed, dropped []string)
	}{
		{"Commit", func(t *testing.T, f *fixture) ([]string, []string) {
			appendAll(t, f.provider, first)
			hdr, err := f.provider.BuildEpoch()
			if err != nil {
				t.Fatal(err)
			}
			appendAll(t, f.provider, rest)
			if err := f.finishEpoch(hdr, allLive(2)); err != nil {
				t.Fatal(err)
			}
			return first, nil
		}},
		{"RestoreCommit", func(t *testing.T, f *fixture) ([]string, []string) {
			for _, id := range append(append([]string(nil), first...), rest...) {
				if err := f.provider.RestoreAppend([]byte(id), []byte("v")); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.provider.RestoreCommit(len(first), 1, digestOf(first)); err != nil {
				t.Fatal(err)
			}
			return first, nil
		}},
		{"DropPendingN", func(t *testing.T, f *fixture) ([]string, []string) {
			appendAll(t, f.provider, first)
			appendAll(t, f.provider, rest)
			if n := f.provider.DropPendingN(len(first)); n != len(first) {
				t.Fatalf("dropped %d", n)
			}
			return nil, first
		}},
		{"DropPending", func(t *testing.T, f *fixture) ([]string, []string) {
			appendAll(t, f.provider, first)
			f.provider.DropPending()
			appendAll(t, f.provider, rest)
			return nil, first
		}},
		{"GarbageCollect", func(t *testing.T, f *fixture) ([]string, []string) {
			appendAll(t, f.provider, first[:3])
			if err := f.runEpoch(t, allLive(2)); err != nil {
				t.Fatal(err)
			}
			appendAll(t, f.provider, first[3:])
			f.provider.GarbageCollect()
			appendAll(t, f.provider, rest)
			return nil, first
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := newFixture(t, testCfg(), 2)
			committed, dropped := c.cut(t, f)
			p := f.provider
			if len(p.pendingIDs) != len(p.pending) {
				t.Fatalf("duplicate set holds %d ids for %d pending", len(p.pendingIDs), len(p.pending))
			}
			for _, id := range append(append([]string(nil), rest...), committed...) {
				if err := p.Append([]byte(id), []byte("w")); !errors.Is(err, logtree.ErrDuplicate) {
					t.Fatalf("duplicate %s not refused: %v", id, err)
				}
			}
			for _, id := range dropped {
				if err := p.Append([]byte(id), []byte("w")); err != nil {
					t.Fatalf("dropped %s not appendable again: %v", id, err)
				}
				if err := p.Append([]byte(id), []byte("w")); !errors.Is(err, logtree.ErrDuplicate) {
					t.Fatalf("re-appended %s not refused a second time: %v", id, err)
				}
			}
		})
	}
}
