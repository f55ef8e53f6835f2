package provider

import (
	"errors"
	"fmt"
	"sort"

	"safetypin/internal/aggsig"
)

// Fleet aggregate-key cache. The journaled roster changes only when an
// HSM registers (live via JournalRoster, or replayed during Open), so
// the aggregate verification key over the whole fleet is cached in an
// aggsig.RosterCache and rebuilt only when the provider's roster
// generation moves. Per-epoch quorum keys then cost O(missing) group
// subtractions instead of an O(fleet) multi-scalar multiplication.

// RosterGeneration returns the provider's roster mutation counter. It
// advances on every registration — including those replayed from the
// journal on Open — so equal generations imply an identical roster.
func (p *Provider) RosterGeneration() uint64 {
	p.fleetMu.RLock()
	defer p.fleetMu.RUnlock()
	return p.rosterGen
}

// rosterCacheLocked returns the fleet aggregate cache, rebuilding it
// when the roster generation moved since the last build (a registration
// landed after the previous aggregate was computed). Caller holds
// fleetMu for writing.
func (p *Provider) rosterCacheLocked() (*aggsig.RosterCache, map[int]int, error) {
	if p.rcache != nil && p.rcacheGen == p.rosterGen {
		return p.rcache, p.rcacheIDs, nil
	}
	if len(p.roster) == 0 {
		return nil, nil, errors.New("provider: no journaled roster entries")
	}
	ids := make([]int, 0, len(p.roster))
	for id := range p.roster {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	pks := make([]aggsig.PublicKey, len(ids))
	pos := make(map[int]int, len(ids))
	for i, id := range ids {
		pk, err := aggsig.ParsePublicKey(p.roster[id].AggPub)
		if err != nil {
			return nil, nil, fmt.Errorf("provider: roster entry %d aggregate key: %w", id, err)
		}
		pks[i] = pk
		pos[id] = i
	}
	c := aggsig.NewRosterCache(nil)
	c.SetRoster(pks)
	p.rcache, p.rcacheIDs, p.rcacheGen = c, pos, p.rosterGen
	return c, pos, nil
}

// RosterAggregate returns the aggregate verification key over every
// journaled roster entry plus its serialized form, cached per roster
// generation.
func (p *Provider) RosterAggregate() (aggsig.PublicKey, []byte, error) {
	p.fleetMu.Lock()
	c, _, err := p.rosterCacheLocked()
	p.fleetMu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	return c.FullAggregate()
}

// QuorumKey returns the aggregate verification key for the given HSM IDs
// (a subset of the journaled roster), derived by subtracting the missing
// members from the cached fleet aggregate.
func (p *Provider) QuorumKey(hsmIDs []int) (aggsig.PublicKey, error) {
	p.fleetMu.Lock()
	c, pos, err := p.rosterCacheLocked()
	p.fleetMu.Unlock()
	if err != nil {
		return nil, err
	}
	signers := make([]int, len(hsmIDs))
	for i, id := range hsmIDs {
		j, ok := pos[id]
		if !ok {
			return nil, fmt.Errorf("provider: HSM %d not in journaled roster", id)
		}
		signers[i] = j
	}
	return c.QuorumKey(signers)
}
