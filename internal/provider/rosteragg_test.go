package provider

import (
	"crypto/rand"
	"testing"

	"safetypin/internal/aggsig"
	"safetypin/internal/dlog"
	"safetypin/internal/storage"
)

// rosterFixtureKeys generates BLS roster entries keyed by the given
// (deliberately non-contiguous) HSM IDs, returning the entries plus the
// parsed public keys by ID for from-scratch oracle aggregation.
func rosterFixtureKeys(t *testing.T, ids []int) ([]RosterEntry, map[int]aggsig.PublicKey) {
	t.Helper()
	entries := make([]RosterEntry, 0, len(ids))
	byID := make(map[int]aggsig.PublicKey, len(ids))
	for _, id := range ids {
		s, err := aggsig.KeyGen(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pk := s.PublicKey()
		entries = append(entries, RosterEntry{ID: id, Addr: "hsm", AggPub: pk.Bytes()})
		byID[id] = pk
	}
	return entries, byID
}

// aggregateOracle aggregates keys from scratch — the differential oracle
// for the provider's cached fleet aggregate.
func aggregateOracle(t *testing.T, pks []aggsig.PublicKey) []byte {
	t.Helper()
	full, err := aggsig.AggregateKeys(pks)
	if err != nil {
		t.Fatal(err)
	}
	return full.Bytes()
}

func openRosterProvider(t *testing.T, mem *storage.MemEngine) *Provider {
	t.Helper()
	p, err := Open(dlog.Config{}, EngineConfig{Storage: mem, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestRosterAggregateMidStreamRegistration pins the cache-invalidation
// rule: a registration that lands AFTER the fleet aggregate was built
// must bump the roster generation and force the next aggregate to
// include the new key.
func TestRosterAggregateMidStreamRegistration(t *testing.T) {
	ids := []int{7, 3, 11, 5}
	entries, byID := rosterFixtureKeys(t, append(ids, 20))
	p := openRosterProvider(t, storage.NewMem())
	defer p.Close()

	if _, _, err := p.RosterAggregate(); err == nil {
		t.Fatal("empty roster should not aggregate")
	}
	for _, e := range entries[:4] {
		if err := p.JournalRoster(e); err != nil {
			t.Fatal(err)
		}
	}
	gen := p.RosterGeneration()
	if gen == 0 {
		t.Fatal("registrations did not advance the roster generation")
	}
	_, before, err := p.RosterAggregate()
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateOracle(t, []aggsig.PublicKey{byID[3], byID[5], byID[7], byID[11]})
	if string(before) != string(want) {
		t.Fatal("fleet aggregate differs from from-scratch aggregation")
	}

	// The mid-stream registration: entry 20 lands after the build.
	if err := p.JournalRoster(entries[4]); err != nil {
		t.Fatal(err)
	}
	if p.RosterGeneration() <= gen {
		t.Fatal("mid-stream registration did not bump the roster generation")
	}
	_, after, err := p.RosterAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if string(after) == string(before) {
		t.Fatal("stale fleet aggregate served after mid-stream registration")
	}
	want = aggregateOracle(t, []aggsig.PublicKey{byID[3], byID[5], byID[7], byID[11], byID[20]})
	if string(after) != string(want) {
		t.Fatal("rebuilt fleet aggregate differs from from-scratch aggregation")
	}

	// Quorum keys address HSMs by ID, not position, and match from-scratch
	// aggregation of the subset.
	qk, err := p.QuorumKey([]int{3, 11, 20})
	if err != nil {
		t.Fatal(err)
	}
	want = aggregateOracle(t, []aggsig.PublicKey{byID[3], byID[11], byID[20]})
	if string(qk.Bytes()) != string(want) {
		t.Fatal("quorum key differs from from-scratch subset aggregation")
	}
	if _, err := p.QuorumKey([]int{3, 4}); err == nil {
		t.Fatal("quorum key accepted an HSM ID outside the roster")
	}
}

// TestRosterAggregateSurvivesReopen pins invalidation across recovery:
// replayed registrations advance the generation, the reopened provider
// serves the same aggregate, and a post-reopen registration invalidates
// it just like a live one.
func TestRosterAggregateSurvivesReopen(t *testing.T) {
	entries, byID := rosterFixtureKeys(t, []int{2, 9, 4, 6})
	mem := storage.NewMem()
	p := openRosterProvider(t, mem)
	for _, e := range entries[:3] {
		if err := p.JournalRoster(e); err != nil {
			t.Fatal(err)
		}
	}
	_, before, err := p.RosterAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}

	// Close marked the engine closed; recovery replays the crash clone
	// (everything synced up to the shutdown snapshot).
	p2 := openRosterProvider(t, mem.CrashClone())
	defer p2.Close()
	if p2.RosterGeneration() == 0 {
		t.Fatal("replayed registrations did not advance the roster generation")
	}
	_, recovered, err := p2.RosterAggregate()
	if err != nil {
		t.Fatal(err)
	}
	if string(recovered) != string(before) {
		t.Fatal("reopened provider serves a different fleet aggregate")
	}

	// A registration landing after recovery must invalidate the aggregate
	// the reopened provider just rebuilt.
	gen := p2.RosterGeneration()
	if err := p2.JournalRoster(entries[3]); err != nil {
		t.Fatal(err)
	}
	if p2.RosterGeneration() <= gen {
		t.Fatal("post-reopen registration did not bump the roster generation")
	}
	_, after, err := p2.RosterAggregate()
	if err != nil {
		t.Fatal(err)
	}
	want := aggregateOracle(t, []aggsig.PublicKey{byID[2], byID[4], byID[6], byID[9]})
	if string(after) != string(want) {
		t.Fatal("post-reopen aggregate differs from from-scratch aggregation")
	}
}
