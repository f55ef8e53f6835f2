package aggsig

import (
	"errors"
	"fmt"
	"slices"
	"sync"
)

// RosterCache caches the full-roster aggregate verification key — the
// point and its serialized form — keyed by a roster generation counter,
// and derives per-epoch quorum keys incrementally. Every epoch commit
// used to re-run the O(n) AggregateKeys summation over a signer set that
// barely changes between epochs; with the cache, an epoch whose commit
// carries m missing signers costs O(m) group subtractions against the
// cached full aggregate (built once per roster generation, amortized
// across every subsequent epoch).
//
// Invalidation is by generation: every SetRoster bumps the counter, and
// the cached aggregate is only served while its build generation matches.
// A registration that lands after the aggregate was built therefore
// forces a rebuild on next use.
//
// The subtracted quorum key is exactly the key a from-scratch aggregation
// of the signer subset produces, so serializations are byte-identical
// (rostercache_test.go keeps the from-scratch path as the differential
// oracle).
//
// The last subtracted quorum key is remembered (one entry, keyed by the
// missing set): a fleet whose dead set is stable gets the same key object
// every epoch, so the key's prepared pairing lines (bls.PublicKey)
// survive across epochs. Any roster mutation drops the entry with the full
// aggregate; a different missing set replaces it and costs one
// subtraction, as every epoch did before the memo.
type RosterCache struct {
	mu sync.Mutex

	gen    uint64
	roster []PublicKey

	// Cached full aggregate, or the error building it failed with, valid
	// only while builtGen == gen: a roster that repeats a key costs one
	// O(n) aggregation per generation, not one per commit offered.
	full      PublicKey
	fullBytes []byte
	buildErr  error
	builtGen  uint64

	// Last subtracted quorum key and the ascending roster indices it
	// leaves out; dropped by bumpLocked.
	memoKey     PublicKey
	memoMissing []int
}

// NewRosterCache returns an empty roster cache. The scheme argument is
// the stateless handle and may be nil.
func NewRosterCache(Scheme) *RosterCache {
	return &RosterCache{}
}

// SetRoster replaces the roster, bumping the generation and invalidating
// the cached aggregate.
func (c *RosterCache) SetRoster(pks []PublicKey) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.roster = append([]PublicKey(nil), pks...)
	c.bumpLocked()
}

// bumpLocked advances the generation and drops the cached aggregate and
// the quorum-key memo. Caller holds mu.
func (c *RosterCache) bumpLocked() {
	c.gen++
	c.full = nil
	c.fullBytes = nil
	c.buildErr = nil
	c.memoKey = nil
	c.memoMissing = nil
}

// Size returns the roster size.
func (c *RosterCache) Size() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.roster)
}

// FullAggregate returns the aggregate over the whole roster plus its
// serialized form, building it at most once per generation. A roster that
// repeats a key has no aggregate (AggregateKeys refuses it), so this and
// every quorum key over both copies fail.
func (c *RosterCache) FullAggregate() (PublicKey, []byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.buildLocked(); err != nil {
		return nil, nil, err
	}
	return c.full, c.fullBytes, nil
}

// buildLocked (re)builds the cached full aggregate if the generation
// moved since it was last built, and returns the build's error, the
// remembered one included. Caller holds mu.
func (c *RosterCache) buildLocked() error {
	if c.builtGen == c.gen && (c.full != nil || c.buildErr != nil) {
		return c.buildErr
	}
	c.builtGen = c.gen
	if len(c.roster) == 0 {
		c.buildErr = errors.New("aggsig: empty roster")
		return c.buildErr
	}
	full, err := AggregateKeys(c.roster)
	if err != nil {
		c.buildErr = err
		return err
	}
	c.full = full
	c.fullBytes = full.Bytes()
	return nil
}

// missingFrom validates the signer index set and returns the roster
// indices NOT in it, ascending (so the result does not depend on the order
// signers are listed in). Caller holds mu.
func (c *RosterCache) missingFrom(signers []int) ([]int, error) {
	present := make([]bool, len(c.roster))
	for _, s := range signers {
		if s < 0 || s >= len(c.roster) {
			return nil, fmt.Errorf("aggsig: signer index %d out of roster range %d", s, len(c.roster))
		}
		if present[s] {
			return nil, fmt.Errorf("aggsig: duplicate signer index %d", s)
		}
		present[s] = true
	}
	missing := make([]int, 0, len(c.roster)-len(signers))
	for i, ok := range present {
		if !ok {
			missing = append(missing, i)
		}
	}
	return missing, nil
}

// QuorumKey returns the aggregate verification key of the roster subset
// given by signer indices. When few signers are missing — the per-epoch
// common case — it subtracts them from the cached full aggregate, or
// returns the remembered key when the same members were missing last time;
// when most are missing it falls back to aggregating the subset directly,
// which is cheaper than subtracting more than half the roster. All paths
// return the identical group element, whatever order the signers are
// listed in.
func (c *RosterCache) QuorumKey(signers []int) (PublicKey, error) {
	if len(signers) == 0 {
		return nil, errors.New("aggsig: empty signer set")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	missing, err := c.missingFrom(signers)
	if err != nil {
		return nil, err
	}
	if len(missing) > len(c.roster)/2 {
		subset := slices.Clone(signers)
		slices.Sort(subset)
		pks := make([]PublicKey, len(subset))
		for i, s := range subset {
			pks[i] = c.roster[s]
		}
		return AggregateKeys(pks)
	}
	if err := c.buildLocked(); err != nil {
		return nil, err
	}
	if len(missing) == 0 {
		return c.full, nil
	}
	if slices.Equal(c.memoMissing, missing) { // missing is non-empty here
		return c.memoKey, nil
	}
	pks := make([]PublicKey, len(missing))
	for i, m := range missing {
		pks[i] = c.roster[m]
	}
	key, err := SubtractKeys(c.full, pks)
	if err != nil {
		return nil, err
	}
	c.memoKey, c.memoMissing = key, missing
	return key, nil
}
