package adversary

import (
	"fmt"
	"sync"
)

// The §3 threat-model claims, as named predicates. Every scenario
// records which of these it observed holding or breaking; the names are
// stable identifiers the report and ARCHITECTURE.md's claim table key
// on.
const (
	// InvAttemptBounded: a user's attempt counter never exceeds the
	// guess limit k — the global budget the distributed log enforces.
	InvAttemptBounded = "attempt-counter-bounded"
	// InvNoUnburn: crash-recovery replay never decreases an attempt
	// counter; a burned guess stays burned across kill -9, power loss,
	// and injected storage faults.
	InvNoUnburn = "attempts-never-unburn"
	// InvKPlusOneRejected: with k guesses burned, the k+1-th
	// reservation is refused (provider.ErrAttemptLimit at the front
	// door; the HSMs would refuse the attempt index independently).
	InvKPlusOneRejected = "k-plus-1-rejected"
	// InvPunctureIrreversible: once a backup is recovered, its
	// ciphertext can never be decrypted again — live re-fetches fail at
	// every cluster HSM, before and after a provider restart.
	InvPunctureIrreversible = "puncture-irreversible"
	// InvStaleEviction: escrow holds only the newest attempt's replies;
	// replies for older attempts are served but never re-escrowed.
	InvStaleEviction = "stale-attempt-evicted"
	// InvNoDoubleReplay: resuming a session replays escrowed shares
	// instead of re-fetching them — no resume storm makes an HSM
	// decrypt (and puncture) more than once per cluster position.
	InvNoDoubleReplay = "escrow-never-double-replayed"
	// InvLogConsistent: the audit log replays from genesis to the
	// published digest even with guesses racing epoch boundaries — the
	// transparency property auditors depend on.
	InvLogConsistent = "audit-log-consistent"
	// InvHidesCluster: nothing a stored ciphertext shows in the clear
	// depends on which HSMs its shares went to, so an outsider with the
	// username, the ciphertext and every public key cannot test a PIN
	// guess offline — the location hiding that makes k the only budget.
	InvHidesCluster = "ciphertext-hides-cluster"
)

// Violation is one observed breach of a named invariant.
type Violation struct {
	Scenario  string `json:"scenario"`
	Engine    string `json:"engine"`
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%s/%s] %s: %s", v.Scenario, v.Engine, v.Invariant, v.Detail)
}

// Checker accumulates invariant observations from concurrently running
// scenario goroutines.
type Checker struct {
	mu         sync.Mutex
	violations []Violation
	checked    map[string]int // invariant → times asserted
}

// NewChecker returns an empty checker.
func NewChecker() *Checker {
	return &Checker{checked: make(map[string]int)}
}

// Check records one predicate evaluation: ok means the invariant held.
func (c *Checker) Check(scenario, engine, invariant string, ok bool, format string, args ...any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.checked[invariant]++
	if !ok {
		c.violations = append(c.violations, Violation{
			Scenario:  scenario,
			Engine:    engine,
			Invariant: invariant,
			Detail:    fmt.Sprintf(format, args...),
		})
	}
}

// Violations returns every recorded breach (nil when all predicates
// held — the passing state).
func (c *Checker) Violations() []Violation {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Violation(nil), c.violations...)
}

// Checked returns how many times each invariant was asserted, so a run
// that silently skipped a predicate is distinguishable from one that
// verified it.
func (c *Checker) Checked() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int, len(c.checked))
	for k, v := range c.checked {
		out[k] = v
	}
	return out
}
