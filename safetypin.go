// Package safetypin is a from-scratch implementation of SafetyPin
// (Dauterman, Corrigan-Gibbs, Mazières; OSDI 2020): an encrypted mobile-
// backup system in which users remember only a short PIN, brute-force
// guessing is throttled by hardware security modules, and — unlike deployed
// PIN-backup systems — no small fixed set of HSMs can ever decrypt a
// backup. Recovering a user's data requires either guessing the PIN or
// compromising a constant fraction (default 1/16) of every HSM the provider
// operates.
//
// The package wires together the paper's components:
//
//   - location-hiding encryption (internal/lhe) spreads each backup's key
//     shares over a PIN-derived secret cluster of n-of-N HSMs;
//   - puncturable Bloom-filter encryption (internal/bfe) over outsourced
//     storage with secure deletion (internal/securestore) gives forward
//     secrecy: after recovery the ciphertext is dead even if every HSM is
//     later seized;
//   - a distributed append-only log (internal/dlog, internal/logtree)
//     maintained by the untrusted provider and audited in O(1/N) work per
//     HSM enforces the global PIN-guess limit, sealed by BLS
//     multisignatures (internal/bls).
//
// A Deployment hosts an in-process fleet; cmd/hsmd and cmd/providerd run
// the same components as separate OS processes over TCP.
//
// # Construction: Params
//
// NewDeployment builds a deployment from a Params value; zero fields
// follow the paper's rules (cluster min(40, N), threshold n/2, one guess,
// BLS multisignatures), and the fleet size itself has no default:
//
//	d, err := safetypin.NewDeployment(safetypin.Params{
//		NumHSMs:    96,
//		GuessLimit: 5,
//		Engine:     provider.EngineConfig{EpochInterval: 10 * time.Minute},
//	})
//
// # The service API: contexts, roles, sessions
//
// The client sees the provider through three role-scoped interfaces
// (client.BackupStore, client.LogService, client.RecoveryService,
// composed into client.Provider), every method of which takes a
// context.Context. Cancellation and deadlines propagate end to end — from
// Recover through the provider's epoch scheduler and HSM fan-out worker
// pool down to each in-flight per-HSM exchange, locally and across the
// TCP transport's versioned wire protocol. Concretely:
//
//   - Session.RequestShares cancels the laggard HSM share requests the
//     moment it holds t shares; no goroutine or remote handler outlives
//     the session.
//   - A client can abandon a wedged epoch: a cancelled WaitForCommit is
//     unsubscribed from the scheduler's round and leaks nothing.
//   - A disconnecting TCP client aborts its server-side handlers.
//
// Recovery is a long-lived, resumable session rather than one blocking
// call: Client.BeginRecovery returns a client.RecoverySession whose
// SessionToken serializes the (user, attempt) identity, commitment
// opening, and per-recovery ephemeral key; a device that crashes
// mid-recovery hands the token to its replacement, and ResumeRecovery
// picks up from the provider's escrow without consuming a second guess.
//
// # Architecture: concurrency and batching
//
// The system layer is a concurrent, batch-oriented engine shaped after the
// paper's evaluation regime (§9: thousands of concurrent recoveries
// against a ~100-HSM fleet, log epochs every ~10 minutes):
//
//   - The provider stripes per-user state (ciphertexts, escrow, attempt
//     counters) across lock shards, so backups and recoveries of
//     different users never contend on one mutex. Recovery attempt
//     numbers are allocated with an atomic ReserveAttempt, so two devices
//     racing to recover one account get distinct log identifiers.
//   - Log insertions from concurrent recoveries accumulate in the epoch
//     scheduler (internal/provider/scheduler.go) and commit as one shared
//     epoch, when the batching window elapses, the batch-size trigger
//     fires, the standing epoch timer ticks (EngineConfig.EpochInterval —
//     the daemon mode for true 10-minute cadence with no blocked
//     waiters), or on demand. Clients block on WaitForCommit instead of
//     driving epochs themselves.
//   - Epoch execution fans the choose-chunks/audit/commit exchanges out
//     to the fleet through a bounded worker pool, aggregating signatures
//     as they arrive. Each exchange runs under a context bounded by the
//     audit timeout: a slow or hung HSM is skipped (its RPC cancelled)
//     and the epoch commits as long as a quorum signs.
//   - The client's share collection contacts all n cluster members in
//     parallel with per-share error collection, returning (and cancelling
//     the rest) as soon as t shares are held. Recovery latency is then
//     bounded by the slowest needed HSM instead of the sum over the
//     cluster — on the paper's hardware (~0.85 s per HSM op) roughly an
//     n-fold win.
//   - HSMs use fine-grained locking: log auditing, recovery decryption
//     (serialized per key, as the hardware would), and rotation proceed
//     independently, so one HSM serves audit and recovery traffic
//     concurrently.
//
// Params.Engine tunes all of this; the TCP transport exposes
// the same engine through providerd's -epoch-window-ms/-epoch-max-batch/
// -epoch-workers/-epoch-interval flags. The repository's benchmark
// (bench/, BENCHMARK.json) measures it under load.
package safetypin

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/hsm"
	"safetypin/internal/lhe"
	"safetypin/internal/meter"
	"safetypin/internal/provider"
)

// Params configures a deployment.
type Params struct {
	// NumHSMs is N, the data-center fleet size.
	NumHSMs int
	// ClusterSize is n, the hidden recovery cluster size (0 → paper rule:
	// min(40, N)).
	ClusterSize int
	// Threshold is t, shares needed to recover (0 → n/2, the paper's
	// choice for f_live = 1/64).
	Threshold int
	// BFE sizes each HSM's puncturable key (zero → a small test-friendly
	// filter).
	BFE bfe.Params
	// LogChunks is the number of audit chunks per log epoch (0 → N).
	LogChunks int
	// AuditsPerHSM is C, chunks audited per HSM per epoch (0 → cover all
	// chunks collectively with a ×2 safety factor, capped at LogChunks).
	AuditsPerHSM int
	// MinSignerFrac is the quorum an HSM requires on log commits (0 →
	// 0.75).
	MinSignerFrac float64
	// GuessLimit is the per-user recovery-attempt budget (0 → 1).
	GuessLimit int
	// Scheme is the aggregate-signature scheme: BLS multisignatures, the
	// paper's choice and the only one (aggsig.BLS(); nil means the same).
	Scheme aggsig.Scheme
	// DeterministicAudit selects Appendix B.3 chunk assignment.
	DeterministicAudit bool
	// Metered attaches a per-HSM operation meter for the evaluation
	// harness.
	Metered bool
	// Engine tunes the provider's concurrency machinery: epoch batching
	// window, batch-size trigger, standing epoch timer, audit fan-out pool
	// width, lock striping (zero values → provider defaults).
	Engine provider.EngineConfig
}

// DefaultBFEParams is a small Bloom filter adequate for examples and tests
// (64 punctures per key before rotation at 2^-8 failure).
var DefaultBFEParams = bfe.Params{M: 1024, K: 8}

func (p Params) withDefaults() (Params, error) {
	if p.NumHSMs < 1 {
		return p, errors.New("safetypin: need at least one HSM")
	}
	if p.ClusterSize == 0 {
		p.ClusterSize = 40
		if p.ClusterSize > p.NumHSMs {
			p.ClusterSize = p.NumHSMs
		}
	}
	if p.Threshold == 0 {
		p.Threshold = p.ClusterSize / 2
		if p.Threshold < 1 {
			p.Threshold = 1
		}
	}
	if p.BFE.M == 0 {
		p.BFE = DefaultBFEParams
	}
	if p.LogChunks == 0 {
		p.LogChunks = p.NumHSMs
	}
	if p.AuditsPerHSM == 0 {
		// Small fleets: make collective coverage certain rather than
		// probabilistic.
		p.AuditsPerHSM = 2 * (p.LogChunks + p.NumHSMs - 1) / p.NumHSMs
		if p.AuditsPerHSM > p.LogChunks {
			p.AuditsPerHSM = p.LogChunks
		}
	}
	if p.MinSignerFrac == 0 {
		p.MinSignerFrac = 0.75
	}
	if p.GuessLimit == 0 {
		p.GuessLimit = 1
	}
	// The provider enforces the same k at its front door (rejecting
	// over-limit ReserveAttempt calls before any HSM is contacted);
	// Engine.AttemptLimit < 0 opts a deployment out of the provider-side
	// check, leaving the HSMs as the only enforcement point.
	if p.Engine.AttemptLimit == 0 {
		p.Engine.AttemptLimit = p.GuessLimit
	}
	return p, nil
}

// Deployment is an in-process SafetyPin data center: one untrusted provider
// plus a fleet of HSM state machines.
type Deployment struct {
	params   Params
	lhe      lhe.Params
	logCfg   dlog.Config
	Provider *provider.Provider
	HSMs     []*hsm.HSM
	fleet    *bfe.Fleet
	meters   []*meter.Meter
	// signing is the fleet's aggregate-signature roster, shared by every
	// auditor and the provider, which proves each epoch commit against it.
	signing *aggsig.RosterCache
}

// NewDeployment provisions a fleet: per-HSM puncturable keys (outsourced to
// the provider), signing keys, roster installation, and registration.
func NewDeployment(p Params) (*Deployment, error) {
	p, err := p.withDefaults()
	if err != nil {
		return nil, err
	}
	lheParams, err := lhe.NewParams(p.NumHSMs, p.ClusterSize, p.Threshold)
	if err != nil {
		return nil, err
	}
	logCfg := dlog.Config{
		NumChunks:     p.LogChunks,
		AuditsPerHSM:  p.AuditsPerHSM,
		MinSignerFrac: p.MinSignerFrac,
		Deterministic: p.DeterministicAudit,
	}
	hsmCfg := hsm.Config{BFE: p.BFE, Log: logCfg, GuessLimit: p.GuessLimit}

	prov, err := provider.Open(logCfg, p.Engine)
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		params:   p,
		lhe:      lheParams,
		logCfg:   logCfg,
		Provider: prov,
		meters:   make([]*meter.Meter, p.NumHSMs),
	}
	pubs := make([]*bfe.PublicKey, p.NumHSMs)
	roster := make([]aggsig.PublicKey, p.NumHSMs)
	d.HSMs = make([]*hsm.HSM, p.NumHSMs)
	for i := range d.meters {
		if p.Metered {
			d.meters[i] = meter.New()
		}
	}
	// Fleet-level signing keygen first: the batch path shares one
	// Montgomery batch inversion across all public-key affine conversions
	// instead of one inversion per HSM.
	signers, err := aggsig.KeyGenBatch(nil, rand.Reader, p.NumHSMs)
	if err != nil {
		return nil, err
	}
	// Per-HSM provisioning (dominated by the M puncturable-key base
	// multiplications) fans out over the bounded pool. Every write lands
	// in slot i, so the roster order is index-deterministic no matter how
	// the workers interleave; oracle traffic and rand.Reader are safe for
	// concurrent use.
	err = provisionPool(p.NumHSMs, runtime.GOMAXPROCS(0), func(i int) error {
		h, err := hsm.New(i, hsmCfg, d.Provider.OracleFor(i), rand.Reader, d.meters[i], signers[i])
		if err != nil {
			return err
		}
		d.HSMs[i] = h
		pubs[i] = h.BFEPublicKey()
		roster[i] = h.AggSigPublicKey()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// One pre-warmed roster cache shared by every auditor and the
	// provider: per-HSM caches would copy the roster and rebuild the same
	// full aggregate n times on the first epoch commit (RosterCache is
	// mutex-guarded; sharing is safe). Then the InstallRoster/Register
	// fan-out reuses the pool.
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(roster)
	if _, _, err := cache.FullAggregate(); err != nil {
		return nil, err
	}
	d.signing = cache
	d.Provider.SetSigningRoster(cache)
	err = provisionPool(p.NumHSMs, runtime.GOMAXPROCS(0), func(i int) error {
		if err := d.HSMs[i].InstallRoster(cache); err != nil {
			return err
		}
		d.Provider.Register(d.HSMs[i])
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.fleet = bfe.NewFleet(pubs)
	return d, nil
}

// provisionPool runs fn(0)…fn(n−1) on at most workers goroutines;
// workers = 1 degenerates to the sequential loop. The first error stops
// the pool; indices claimed by an atomic counter keep per-index work
// exactly-once, and callers write index-addressed slots, so the result is
// the same at any width.
func provisionPool(n, workers int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1))
				if i >= n {
					return
				}
				mu.Lock()
				stop := firstErr != nil
				mu.Unlock()
				if stop {
					return
				}
				if err := fn(i); err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// Params returns the normalized deployment parameters.
func (d *Deployment) Params() Params { return d.params }

// Close stops the deployment's background machinery (the provider's
// standing epoch timer, when one was configured). Deployments without an
// EpochInterval need no Close.
func (d *Deployment) Close() error { return d.Provider.Close() }

// LHEParams returns the location-hiding-encryption parameters in force.
func (d *Deployment) LHEParams() lhe.Params { return d.lhe }

// Fleet returns the client-side view of all HSM public keys.
func (d *Deployment) Fleet() *bfe.Fleet { return d.fleet }

// NewClient provisions a client device enrolled with this deployment.
func (d *Deployment) NewClient(user, pin string) (*client.Client, error) {
	return client.New(user, pin, d.lhe, d.fleet, d.Provider)
}

// Meter returns HSM i's operation meter (nil unless Params.Metered).
func (d *Deployment) Meter(i int) *meter.Meter { return d.meters[i] }

// ResetMeters zeroes all HSM meters.
func (d *Deployment) ResetMeters() {
	for _, m := range d.meters {
		m.Reset()
	}
}

// RotateHSMKey rotates HSM i's puncturable key onto a fresh provider-hosted
// store and publishes the new public key to the fleet view (clients'
// daily key download of §9.2).
//
//spin:testhook open item: The log's lifecycle as protocol
func (d *Deployment) RotateHSMKey(i int) error {
	if i < 0 || i >= len(d.HSMs) {
		return fmt.Errorf("safetypin: HSM %d out of range", i)
	}
	pk, err := d.HSMs[i].RotateKey(d.Provider.ReplaceOracle(i))
	if err != nil {
		return err
	}
	d.fleet.Replace(i, pk)
	return nil
}

// ReopenProvider replaces the deployment's provider with one recovered
// from eng — the in-process analogue of a provider daemon restarting
// after a crash. The HSM fleet is untouched (HSMs hold their own sealed
// state; only the untrusted provider died): each HSM is re-pointed at
// the recovered provider's hosted block store and re-registered, and the
// last committed epoch is re-delivered to any HSM that missed its commit
// fan-out before the crash. The old provider is simply abandoned, as a
// kill -9 would leave it.
func (d *Deployment) ReopenProvider(eng provider.EngineConfig) error {
	if eng.Storage == nil {
		return errors.New("safetypin: ReopenProvider needs a storage engine to recover from")
	}
	// Same rule as NewDeployment: the reopened provider enforces the
	// deployment's guess budget at the front door unless the caller
	// explicitly opts out with a negative AttemptLimit.
	if eng.AttemptLimit == 0 {
		eng.AttemptLimit = d.params.GuessLimit
	}
	prov, err := provider.Open(d.logCfg, eng)
	if err != nil {
		return err
	}
	// Reattach through the same bounded pool NewDeployment provisions
	// with: per-HSM oracle swaps are independent and Register is
	// mutex-guarded, so the fan-out is order-free.
	err = provisionPool(len(d.HSMs), runtime.GOMAXPROCS(0), func(i int) error {
		d.HSMs[i].SwapOracle(prov.OracleFor(i))
		prov.Register(d.HSMs[i])
		return nil
	})
	if err != nil {
		return err
	}
	prov.SetSigningRoster(d.signing)
	d.Provider = prov
	prov.ResendLastCommit(context.Background())
	return nil
}

// RotateSpentKeys rotates every HSM whose puncture budget is half consumed,
// returning how many rotated.
//
//spin:testhook open item: The log's lifecycle as protocol
func (d *Deployment) RotateSpentKeys() (int, error) {
	rotated := 0
	for i, h := range d.HSMs {
		if h.NeedsRotation() {
			if err := d.RotateHSMKey(i); err != nil {
				return rotated, err
			}
			rotated++
		}
	}
	return rotated, nil
}
