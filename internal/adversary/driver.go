package adversary

import (
	"bytes"
	"context"
	crand "crypto/rand"
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"sync"
	"time"

	"safetypin"
	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/hsm"
	"safetypin/internal/lhe"
	"safetypin/internal/provider"
	"safetypin/internal/storage"
)

// Config shapes one adversarial run. The zero value attacks a 32-HSM
// fleet (cluster 8, threshold 5 — large enough that a wrong-PIN guess
// accidentally reconstructing is a ~1e-6 event, so scenario assertions
// are deterministic in practice) with 8 guessers drawing from the
// skewed distribution, on both storage engines.
type Config struct {
	// Fleet is N; Cluster n; Threshold t (0 → 32/8/5).
	Fleet     int
	Cluster   int
	Threshold int
	// GuessLimit is k, the per-user budget under attack (0 → 4).
	GuessLimit int
	// Guessers is the number of concurrent attacker goroutines (0 → 8).
	Guessers int
	// Dist is the PIN distribution guesses (and the victim's PIN) are
	// drawn from (nil → Skewed()).
	Dist *Dist
	// Seed makes the guess streams reproducible (0 → 1).
	Seed int64
	// Engines selects the storage engines to attack: "mem", "wal"
	// (empty → both).
	Engines []string
	// DataDir hosts the wal engines' scratch journals ("" → the system
	// temp directory); each scenario gets its own subdirectory.
	DataDir string
	// Rate throttles each guesser to this many guesses/sec (0 → closed
	// loop: guess as fast as the deployment answers).
	Rate float64
	// Duration bounds each scenario's hammering phase (0 → 3s). The
	// invariant probes after the hammer always run to completion.
	Duration time.Duration
	// Scenarios restricts the run to the named scenarios (empty → all).
	Scenarios []string
}

func (c Config) withDefaults() Config {
	if c.Fleet == 0 {
		c.Fleet = 32
	}
	if c.Cluster == 0 {
		c.Cluster = 8
		if c.Cluster > c.Fleet {
			c.Cluster = c.Fleet
		}
	}
	if c.Threshold == 0 {
		c.Threshold = 5
		if c.Threshold > c.Cluster {
			c.Threshold = c.Cluster
		}
	}
	if c.GuessLimit == 0 {
		c.GuessLimit = 4
	}
	if c.Guessers == 0 {
		c.Guessers = 8
	}
	if c.Dist == nil {
		c.Dist = Skewed()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if len(c.Engines) == 0 {
		c.Engines = []string{"mem", "wal"}
	}
	if c.Duration == 0 {
		c.Duration = 3 * time.Second
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = ScenarioNames()
	}
	return c
}

// scenarioFunc runs one scenario against a fresh rig and records its
// invariant observations on the checker.
type scenarioFunc func(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error

var scenarios = []struct {
	name string
	run  scenarioFunc
}{
	{"concurrent-guessers", runConcurrentGuessers},
	{"resume-abuse", runResumeAbuse},
	{"epoch-race", runEpochRace},
	{"crash-restart", runCrashRestart},
	{"puncture-irreversible", runPunctureIrreversible},
	{"stale-eviction", runStaleEviction},
	{"bogus-witness", runBogusWitness},
	{"bogus-hint", runBogusHint},
}

// ScenarioNames lists every scenario in execution order.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, s := range scenarios {
		out[i] = s.name
	}
	return out
}

// Run executes the configured scenarios on each engine and returns the
// consolidated report. A scenario error (deployment failure, not an
// invariant breach) aborts the run; invariant breaches land in
// Report.Violations instead.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Dist.Validate(); err != nil {
		return nil, err
	}
	ck := NewChecker()
	report := &Report{
		Dist:       cfg.Dist.Name,
		GuessLimit: cfg.GuessLimit,
		Guessers:   cfg.Guessers,
		Fleet:      cfg.Fleet,
		Engines:    cfg.Engines,
	}
	for _, engine := range cfg.Engines {
		for _, name := range cfg.Scenarios {
			sc, err := scenarioByName(name)
			if err != nil {
				return nil, err
			}
			r, err := newRig(cfg, engine)
			if err != nil {
				return nil, fmt.Errorf("adversary: %s/%s rig: %w", name, engine, err)
			}
			st := ScenarioStats{Name: name, Engine: engine}
			start := time.Now()
			err = sc(ctx, cfg, r, ck, &st)
			st.ElapsedMS = time.Since(start).Milliseconds()
			st.Punctures = r.punctures()
			st.Restarts = r.restarts
			r.cleanup()
			if err != nil {
				return nil, fmt.Errorf("adversary: scenario %s/%s: %w", name, engine, err)
			}
			report.Scenarios = append(report.Scenarios, st)
		}
	}
	report.Checked = ck.Checked()
	report.Violations = ck.Violations()
	return report, nil
}

func scenarioByName(name string) (scenarioFunc, error) {
	for _, s := range scenarios {
		if s.name == name {
			return s.run, nil
		}
	}
	return nil, fmt.Errorf("adversary: unknown scenario %q (have %v)", name, ScenarioNames())
}

// --- rig: one deployment under attack ----------------------------------

// rig is a fresh deployment plus the storage handle needed to crash and
// reopen it. The fault injector wraps the engine so scenarios can kill
// the provider at an exact journal operation; restart always reopens
// the *inner* engine, as a real restart would.
type rig struct {
	cfg      Config
	engine   string
	mem      *storage.MemEngine
	dir      string
	fault    *storage.FaultEngine
	d        *safetypin.Deployment
	restarts int
}

func newRig(cfg Config, engine string) (*rig, error) {
	r := &rig{cfg: cfg, engine: engine}
	inner, err := r.openEngine()
	if err != nil {
		return nil, err
	}
	r.fault = storage.NewFault(inner)
	d, err := safetypin.NewDeployment(safetypin.Params{
		NumHSMs:     cfg.Fleet,
		ClusterSize: cfg.Cluster,
		Threshold:   cfg.Threshold,
		GuessLimit:  cfg.GuessLimit,
		Engine:      provider.EngineConfig{Storage: r.fault, SnapshotEvery: -1},
	})
	if err != nil {
		r.cleanup()
		return nil, err
	}
	r.d = d
	return r, nil
}

// openEngine returns a fresh handle on the rig's storage: the shared
// MemEngine (kill -9 keeps appended records) or a new FileEngine over
// the same WAL directory.
func (r *rig) openEngine() (storage.Engine, error) {
	switch r.engine {
	case "mem":
		if r.mem == nil {
			r.mem = storage.NewMem()
		}
		return r.mem, nil
	case "wal":
		if r.dir == "" {
			dir, err := os.MkdirTemp(r.cfg.DataDir, "adversary-wal-*")
			if err != nil {
				return nil, err
			}
			r.dir = dir
		}
		return storage.OpenFile(r.dir)
	default:
		return nil, fmt.Errorf("adversary: unknown engine %q (mem | wal)", r.engine)
	}
}

// restart models kill -9 plus reopen: the old provider (and any armed
// fault wrapper) is abandoned mid-flight and a new one recovers from
// the journal. HSMs survive — only the untrusted provider dies.
func (r *rig) restart() error {
	inner, err := r.openEngine()
	if err != nil {
		return err
	}
	r.fault = storage.NewFault(inner)
	if err := r.d.ReopenProvider(provider.EngineConfig{Storage: r.fault, SnapshotEvery: -1}); err != nil {
		return err
	}
	r.restarts++
	return nil
}

func (r *rig) cleanup() {
	if r.d != nil {
		_ = r.d.Close()
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
}

// punctures sums puncture counters across the fleet.
func (r *rig) punctures() int64 {
	if r.d == nil {
		return 0
	}
	var n int64
	for _, h := range r.d.HSMs {
		n += h.Punctures()
	}
	return n
}

// attempts returns the provider's attempt counter for a user.
func (r *rig) attempts(ctx context.Context, user string) int {
	n, err := r.d.Provider.AttemptCount(ctx, user)
	if err != nil {
		return -1
	}
	return n
}

// burnAndProbe exhausts whatever budget a user has left via the front
// door, then asserts the k+1-th reservation is rejected. Returns how
// many further attempts were granted. Terminates after k+2 iterations
// regardless, so a broken limit shows up as a violation, not a hang.
func burnAndProbe(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats, user string) int {
	granted := 0
	for i := 0; i <= cfg.GuessLimit+1; i++ {
		_, err := r.d.Provider.ReserveAttempt(ctx, user)
		if err == nil {
			granted++
			continue
		}
		ck.Check(st.Name, st.Engine, InvKPlusOneRejected, errors.Is(err, provider.ErrAttemptLimit),
			"user %q: reservation failed with %v, want ErrAttemptLimit", user, err)
		st.KPlusOneRejected = errors.Is(err, provider.ErrAttemptLimit)
		break
	}
	n := r.attempts(ctx, user)
	ck.Check(st.Name, st.Engine, InvAttemptBounded, n <= cfg.GuessLimit,
		"user %q: counter %d exceeds limit %d", user, n, cfg.GuessLimit)
	ck.Check(st.Name, st.Engine, InvKPlusOneRejected, st.KPlusOneRejected,
		"user %q: budget never exhausted after %d extra grants", user, granted)
	return granted
}

// --- scenario: concurrent guessers -------------------------------------

// runConcurrentGuessers is §3's core attack: many parallel guessers
// draw PINs from the distribution and hammer one account until the
// budget burns. The victim's PIN is itself a draw from the same
// distribution, so under the skewed dist a dictionary attacker
// sometimes wins inside k — which is the paper's point: k bounds the
// attacker to the head of the PIN distribution, it cannot make PINs
// strong.
func runConcurrentGuessers(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	const user = "victim"
	pinRng := rand.New(rand.NewSource(cfg.Seed))
	pin := cfg.Dist.Sample(pinRng)
	secret := []byte("concurrent-guessers payload")
	victim, err := r.d.NewClient(user, pin)
	if err != nil {
		return err
	}
	if err := victim.Backup(ctx, secret); err != nil {
		return err
	}
	if err := offlineGuesser(ctx, cfg, r, ck, st, user); err != nil {
		return err
	}

	var (
		mu        sync.Mutex
		guesses   int
		rejected  int
		recovered int
	)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for g := 0; g < cfg.Guessers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(g) + 1))
			c, err := r.d.NewClient(user, "")
			if err != nil {
				return
			}
			myRejections := 0
			for time.Now().Before(deadline) && ctx.Err() == nil {
				guess := cfg.Dist.Sample(rng)
				_, err := c.Recover(ctx, guess)
				mu.Lock()
				guesses++
				switch {
				case err == nil:
					recovered++
				case errors.Is(err, provider.ErrAttemptLimit):
					rejected++
					myRejections++
				}
				mu.Unlock()
				// Two observed rejections prove the door is shut for this
				// guesser; keeping on hammering only burns wall clock.
				if myRejections >= 2 {
					return
				}
				if cfg.Rate > 0 {
					time.Sleep(time.Duration(float64(time.Second) / cfg.Rate))
				}
			}
		}(g)
	}
	wg.Wait()
	st.Guesses, st.Rejected, st.Recovered = guesses, rejected, recovered
	st.Granted = r.attempts(ctx, user)

	n := r.attempts(ctx, user)
	ck.Check(st.Name, st.Engine, InvAttemptBounded, n <= cfg.GuessLimit,
		"victim counter %d exceeds limit %d after %d concurrent guesses", n, cfg.GuessLimit, guesses)
	// Each granted attempt can puncture at most one share per cluster
	// position; concurrency must not mint extra decryptions.
	maxPunct := int64(cfg.GuessLimit * cfg.Cluster)
	ck.Check(st.Name, st.Engine, InvAttemptBounded, r.punctures() <= maxPunct,
		"fleet punctured %d times, budget allows at most %d", r.punctures(), maxPunct)
	burnAndProbe(ctx, cfg, r, ck, st, user)
	return nil
}

// offlineGuesser is the attacker who skips the front door. It holds what
// the provider holds — the username, the stored ciphertext, every HSM
// public key — and encrypts to the same salt under the PINs it would guess
// first, looking for anything in the clear that a right guess reproduces
// and a wrong one does not: that would be a PIN test with no guess limit.
// The one deterministic field a share carries in the clear is its BFE tag,
// so the tags must come out the same whichever PIN — that is, whichever
// cluster — the guess selects.
func offlineGuesser(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats, user string) error {
	blob, err := r.d.Provider.FetchCiphertext(ctx, user)
	if err != nil {
		return err
	}
	stored, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		return err
	}
	for _, guess := range cfg.Dist.Ranked(4) {
		ct, err := r.d.LHEParams().EncryptWithSalt(r.d.Fleet(), user, guess, stored.Salt, []byte("probe"), crand.Reader)
		if err != nil {
			return err
		}
		cluster, err := r.d.LHEParams().Select(stored.Salt, guess)
		if err != nil {
			return err
		}
		for j := range stored.Shares {
			ck.Check(st.Name, st.Engine, InvHidesCluster,
				bytes.Equal(ct.Shares[j][:bfe.TagSize], stored.Shares[j][:bfe.TagSize]),
				"share %d: re-encrypted under a guess that selects HSM %d, the tag differs from the stored one: the tag tells the cluster", j, cluster[j])
		}
	}
	return nil
}

// --- scenario: session-resume abuse ------------------------------------

// runResumeAbuse replays one legitimate session token many times in
// parallel: resumption must come from escrow, never from fresh HSM
// decryptions, and must never burn another attempt.
func runResumeAbuse(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	const user = "resumed"
	pin := cfg.Dist.Ranked(1)[0]
	secret := []byte("resume-abuse payload")
	c, err := r.d.NewClient(user, pin)
	if err != nil {
		return err
	}
	if err := c.Backup(ctx, secret); err != nil {
		return err
	}
	s, err := c.BeginRecovery(ctx, pin)
	if err != nil {
		return err
	}
	st.Guesses++
	s.RequestShares(ctx) // early exit at threshold; errors tolerated
	if s.SharesHeld() < cfg.Threshold {
		return fmt.Errorf("seed session holds %d of %d shares", s.SharesHeld(), cfg.Threshold)
	}
	token, err := s.SessionToken()
	if err != nil {
		return err
	}
	attemptsAfterBegin := r.attempts(ctx, user)

	var wg sync.WaitGroup
	resumes := cfg.Guessers
	for i := 0; i < resumes; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c2, err := r.d.NewClient(user, "")
			if err != nil {
				return
			}
			rs, err := c2.ResumeRecovery(ctx, token)
			if err != nil {
				return
			}
			rs.RequestShares(ctx) // escrow already meets t: must not fetch
		}()
	}
	wg.Wait()
	st.Resumes = resumes

	ck.Check(st.Name, st.Engine, InvNoUnburn, r.attempts(ctx, user) == attemptsAfterBegin,
		"resume storm moved the counter %d → %d", attemptsAfterBegin, r.attempts(ctx, user))
	ck.Check(st.Name, st.Engine, InvNoDoubleReplay, r.punctures() <= int64(cfg.Cluster),
		"%d resumes drove punctures to %d (> cluster %d): escrow was re-fetched live",
		resumes, r.punctures(), cfg.Cluster)

	// One resumption completes legitimately — resumability is a feature,
	// the invariant is that it is never a free extra guess.
	c3, err := r.d.NewClient(user, "")
	if err != nil {
		return err
	}
	rs, err := c3.ResumeRecovery(ctx, token)
	if err != nil {
		return err
	}
	st.Resumes++
	got, err := rs.Finish(ctx)
	if err != nil {
		return fmt.Errorf("resumed finish: %w", err)
	}
	if string(got) != string(secret) {
		return errors.New("resumed recovery returned wrong plaintext")
	}
	st.Recovered++
	ck.Check(st.Name, st.Engine, InvNoUnburn, r.attempts(ctx, user) == attemptsAfterBegin,
		"completing a resume moved the counter %d → %d", attemptsAfterBegin, r.attempts(ctx, user))
	burnAndProbe(ctx, cfg, r, ck, st, user)
	return nil
}

// --- scenario: guesses racing the epoch scheduler -----------------------

// runEpochRace interleaves recovery begins with forced epochs: attempt
// accounting and the audit log must stay consistent no matter how
// insertions land relative to epoch boundaries.
func runEpochRace(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	users := cfg.Guessers
	secret := []byte("epoch-race payload")
	pins := make([]string, users)
	pinRng := rand.New(rand.NewSource(cfg.Seed + 7))
	clients := make([]*client.Client, users)
	for i := 0; i < users; i++ {
		pins[i] = cfg.Dist.Sample(pinRng)
		c, err := r.d.NewClient(fmt.Sprintf("racer-%d", i), pins[i])
		if err != nil {
			return err
		}
		if err := c.Backup(ctx, secret); err != nil {
			return err
		}
		clients[i] = c
	}

	stop := make(chan struct{})
	var churn sync.WaitGroup
	churn.Add(1)
	go func() {
		defer churn.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = r.d.Provider.RunEpoch(ctx) // extra epochs; failures benign
			}
		}
	}()
	var wg sync.WaitGroup
	begun := make([]*client.RecoverySession, users)
	for i := 0; i < users; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := clients[i].BeginRecovery(ctx, pins[i])
			if err != nil {
				return
			}
			begun[i] = s
		}(i)
	}
	wg.Wait()
	close(stop)
	churn.Wait()
	st.Guesses = users

	for i := 0; i < users; i++ {
		user := fmt.Sprintf("racer-%d", i)
		n := r.attempts(ctx, user)
		ck.Check(st.Name, st.Engine, InvAttemptBounded, n <= cfg.GuessLimit,
			"user %s counter %d exceeds limit %d", user, n, cfg.GuessLimit)
		if begun[i] != nil {
			st.Granted++
			ck.Check(st.Name, st.Engine, InvAttemptBounded, n >= 1,
				"user %s began a recovery but counter is %d", user, n)
		}
	}
	ck.Check(st.Name, st.Engine, InvLogConsistent,
		dlog.Replay(r.d.Provider.LogEntries(), r.d.Provider.LogDigest()) == nil,
		"audit log does not replay from genesis after racing epochs")

	// One racer completes. Later racers' epochs advanced the log past the
	// session's cached inclusion proof, so the completion goes through
	// the resume path — which re-derives the proof for the already-logged
	// attempt without burning a new one.
	for i := 0; i < users; i++ {
		if begun[i] == nil {
			continue
		}
		token, err := begun[i].SessionToken()
		if err != nil {
			return err
		}
		c2, err := r.d.NewClient(fmt.Sprintf("racer-%d", i), "")
		if err != nil {
			return err
		}
		rs, err := c2.ResumeRecovery(ctx, token)
		if err != nil {
			return fmt.Errorf("racer %d resume: %w", i, err)
		}
		st.Resumes++
		rs.RequestShares(ctx)
		got, err := rs.Finish(ctx)
		if err != nil {
			return fmt.Errorf("racer %d finish: %w", i, err)
		}
		if string(got) != string(secret) {
			return errors.New("raced recovery returned wrong plaintext")
		}
		st.Recovered++
		break
	}
	burnAndProbe(ctx, cfg, r, ck, st, "racer-0")
	return nil
}

// --- scenario: crash-restart mid-attempt --------------------------------

// runCrashRestart kills the provider in the middle of a recovery — once
// via an injected journal fault, once per explicit kill -9/reopen — and
// asserts burned guesses stay burned, the interrupted session resumes
// without a fresh attempt, and the budget stays shut after every
// restart.
func runCrashRestart(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	const user = "phoenix"
	pin := cfg.Dist.Ranked(2)[1]
	secret := []byte("crash-restart payload")
	c, err := r.d.NewClient(user, pin)
	if err != nil {
		return err
	}
	if err := c.Backup(ctx, secret); err != nil {
		return err
	}

	// A legitimate recovery gets halfway: attempt burned, some shares
	// escrowed, token saved.
	s, err := c.BeginRecovery(ctx, pin)
	if err != nil {
		return err
	}
	st.Guesses++
	for j := 0; j < cfg.Threshold-1; j++ {
		if err := s.RequestShare(ctx, j); err != nil {
			return fmt.Errorf("mid-attempt share %d: %w", j, err)
		}
	}
	token, err := s.SessionToken()
	if err != nil {
		return err
	}
	before := r.attempts(ctx, user)

	// The journal dies under the next reservation: the guess is refused
	// and must not exist anywhere — not even in RAM.
	r.fault.FailAppendAt(1)
	_, err = r.d.Provider.ReserveAttempt(ctx, user)
	st.Guesses++
	if !errors.Is(err, storage.ErrInjected) {
		return fmt.Errorf("injected fault: reservation returned %v", err)
	}
	ck.Check(st.Name, st.Engine, InvAttemptBounded, r.attempts(ctx, user) == before,
		"failed reservation advanced the counter %d → %d", before, r.attempts(ctx, user))

	// Kill -9, reopen, and check nothing un-burned.
	if err := r.restart(); err != nil {
		return err
	}
	after := r.attempts(ctx, user)
	ck.Check(st.Name, st.Engine, InvNoUnburn, after >= before,
		"restart regressed the counter %d → %d", before, after)

	// The interrupted session resumes on the recovered provider without
	// consuming a guess: escrowed shares replay, the missing ones fetch.
	c2, err := r.d.NewClient(user, "")
	if err != nil {
		return err
	}
	rs, err := c2.ResumeRecovery(ctx, token)
	if err != nil {
		return fmt.Errorf("resume after crash: %w", err)
	}
	st.Resumes++
	rs.RequestShares(ctx)
	got, err := rs.Finish(ctx)
	if err != nil {
		return fmt.Errorf("finish after crash: %w", err)
	}
	if string(got) != string(secret) {
		return errors.New("post-crash recovery returned wrong plaintext")
	}
	st.Recovered++
	ck.Check(st.Name, st.Engine, InvNoUnburn, r.attempts(ctx, user) == after,
		"post-crash resume moved the counter %d → %d", after, r.attempts(ctx, user))
	ck.Check(st.Name, st.Engine, InvNoDoubleReplay, r.punctures() <= int64(cfg.Cluster),
		"crash+resume drove punctures to %d (> cluster %d)", r.punctures(), cfg.Cluster)

	// Exhaust the budget, crash once more, and make sure the rejection
	// itself survived: the door stays shut on the reopened provider.
	burnAndProbe(ctx, cfg, r, ck, st, user)
	if err := r.restart(); err != nil {
		return err
	}
	_, err = r.d.Provider.ReserveAttempt(ctx, user)
	ck.Check(st.Name, st.Engine, InvNoUnburn, errors.Is(err, provider.ErrAttemptLimit),
		"restart resurrected the budget: reservation returned %v", err)
	return nil
}

// --- scenario: puncture irreversibility ---------------------------------

// runPunctureIrreversible recovers a backup, then attacks the corpse:
// the same session token, the same committed attempt, a live re-fetch
// at every cluster HSM, a white-box decrypt probe, and all of it again
// after a provider restart. Nothing may yield the plaintext twice.
func runPunctureIrreversible(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	const user = "lazarus"
	pin := cfg.Dist.Ranked(3)[2]
	secret := []byte("puncture payload")
	c, err := r.d.NewClient(user, pin)
	if err != nil {
		return err
	}
	if err := c.Backup(ctx, secret); err != nil {
		return err
	}
	blob, err := r.d.Provider.FetchCiphertext(ctx, user)
	if err != nil {
		return err
	}

	s, err := c.BeginRecovery(ctx, pin)
	if err != nil {
		return err
	}
	st.Guesses++
	token, err := s.SessionToken()
	if err != nil {
		return err
	}
	s.RequestAllShares(ctx)
	got, err := s.Finish(ctx)
	if err != nil {
		return err
	}
	if string(got) != string(secret) {
		return errors.New("legitimate recovery returned wrong plaintext")
	}
	st.Recovered++

	probe := func(when string) error {
		// Replaying the token is fair game for the §3 adversary: the
		// attempt is committed in the log, the inclusion proof is still
		// valid, the attempt index is under k. Every HSM must refuse
		// anyway, because its share is punctured.
		c2, err := r.d.NewClient(user, "")
		if err != nil {
			return err
		}
		rs, err := c2.ResumeRecovery(ctx, token)
		if err == nil {
			st.Resumes++
			rs.RequestAllShares(ctx)
			_, ferr := rs.Finish(ctx)
			ck.Check(st.Name, st.Engine, InvPunctureIrreversible, errors.Is(ferr, client.ErrTooFewShares),
				"%s: replayed session reconstructed (err=%v) with %d shares", when, ferr, rs.SharesHeld())
		} else {
			// Resume can also die earlier (escrow gone, proof refused);
			// that equally denies the plaintext.
			ck.Check(st.Name, st.Engine, InvPunctureIrreversible, true,
				"%s: resume refused: %v", when, err)
		}
		// White-box: the HSMs themselves can no longer decrypt the old
		// share ciphertexts, even handed them directly.
		ct, err := lhe.CiphertextFromBytes(blob)
		if err != nil {
			return err
		}
		cluster, err := r.d.LHEParams().Select(ct.Salt, pin)
		if err != nil {
			return err
		}
		for j, hsmIdx := range cluster {
			_, derr := lhe.DecryptShare(r.d.HSMs[hsmIdx].Decrypter(), user, ct.Salt, j, hsmIdx, ct.Shares[j])
			ck.Check(st.Name, st.Engine, InvPunctureIrreversible, derr != nil,
				"%s: HSM %d still decrypts share %d of the recovered backup", when, hsmIdx, j)
		}
		return nil
	}
	if err := probe("pre-restart"); err != nil {
		return err
	}
	if err := r.restart(); err != nil {
		return err
	}
	if err := probe("post-restart"); err != nil {
		return err
	}
	burnAndProbe(ctx, cfg, r, ck, st, user)
	return nil
}

// --- scenario: stale-attempt eviction -----------------------------------

// runStaleEviction interleaves two sessions of one user: escrow must
// track only the newest attempt, serving — but never re-escrowing —
// replies for the older one.
func runStaleEviction(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	const user = "janus"
	pin := cfg.Dist.Ranked(4)[3]
	secret := []byte("stale-eviction payload")
	c, err := r.d.NewClient(user, pin)
	if err != nil {
		return err
	}
	if err := c.Backup(ctx, secret); err != nil {
		return err
	}

	sA, err := c.BeginRecovery(ctx, pin)
	if err != nil {
		return err
	}
	st.Guesses++
	tokenA, err := sA.SessionToken()
	if err != nil {
		return err
	}
	if err := sA.RequestShare(ctx, 0); err != nil {
		return err
	}
	ck.Check(st.Name, st.Engine, InvStaleEviction, r.d.Provider.EscrowedAttempt(user) == sA.Attempt(),
		"escrow holds attempt %d after session A's fetch, want %d", r.d.Provider.EscrowedAttempt(user), sA.Attempt())

	sB, err := c.BeginRecovery(ctx, pin)
	if err != nil {
		return err
	}
	st.Guesses++
	if err := sB.RequestShare(ctx, 1); err != nil {
		return err
	}
	ck.Check(st.Name, st.Engine, InvStaleEviction, r.d.Provider.EscrowedAttempt(user) == sB.Attempt(),
		"newer attempt %d did not evict escrow (still %d)", sB.Attempt(), r.d.Provider.EscrowedAttempt(user))

	// The stale session keeps working against live HSMs — resumed with a
	// fresh inclusion proof, since sB's epoch advanced the log past its
	// cached one — but must not sneak back into escrow. Its own escrowed
	// share is gone (evicted), so the resume replays nothing.
	cA, err := r.d.NewClient(user, "")
	if err != nil {
		return err
	}
	rsA, err := cA.ResumeRecovery(ctx, tokenA)
	if err != nil {
		return fmt.Errorf("resuming evicted session: %w", err)
	}
	st.Resumes++
	ck.Check(st.Name, st.Engine, InvStaleEviction, rsA.SharesHeld() == 0,
		"evicted session resumed with %d escrowed shares, want 0", rsA.SharesHeld())
	if err := rsA.RequestShare(ctx, 2); err != nil {
		return err
	}
	ck.Check(st.Name, st.Engine, InvStaleEviction, r.d.Provider.EscrowedAttempt(user) == sB.Attempt(),
		"stale session re-entered escrow: attempt %d", r.d.Provider.EscrowedAttempt(user))
	replies, err := r.d.Provider.FetchEscrowedReplies(ctx, user)
	if err != nil {
		return err
	}
	ck.Check(st.Name, st.Engine, InvStaleEviction, len(replies) == 1,
		"escrow holds %d replies, want only the newest attempt's 1", len(replies))

	// The newest session completes from the untouched positions.
	sB.RequestShares(ctx)
	got, err := sB.Finish(ctx)
	if err != nil {
		return fmt.Errorf("newest session finish: %w", err)
	}
	if string(got) != string(secret) {
		return errors.New("stale-eviction recovery returned wrong plaintext")
	}
	st.Recovered++
	burnAndProbe(ctx, cfg, r, ck, st, user)
	return nil
}

// --- the provider's own log: bogus witnesses, hints and preimages -----

// forger is a provider of the adversary's own: a log that starts at the
// digest every fresh HSM holds, and the fleet's roster, with which it
// stages epochs, has the whole fleet audit and sign them, and proves
// commits, honest or not.
type forger struct {
	hsms   []*hsm.HSM
	keys   []aggsig.PublicKey
	roster *aggsig.RosterCache
	log    *dlog.Provider
}

func newForger(r *rig) *forger {
	f := &forger{hsms: r.d.HSMs, keys: make([]aggsig.PublicKey, len(r.d.HSMs))}
	for i, h := range f.hsms {
		f.keys[i] = h.AggSigPublicKey()
	}
	f.roster = aggsig.NewRosterCache(nil)
	f.roster.SetRoster(f.keys)
	f.log = dlog.NewProvider(dlog.Config{NumChunks: 4})
	return f
}

// stage stages an epoch of one insertion.
func (f *forger) stage(id string) (dlog.EpochHeader, error) {
	if err := f.log.Append([]byte(id), []byte("v")); err != nil {
		return dlog.EpochHeader{}, err
	}
	return f.log.BuildEpoch()
}

// audit has HSM i choose its chunks for hdr and offers it the package
// for them, altered by tamper when it is not nil.
func (f *forger) audit(ctx context.Context, i int, hdr dlog.EpochHeader, tamper func(*dlog.AuditPackage)) ([]byte, error) {
	chunks, err := f.hsms[i].LogChooseChunks(ctx, hdr)
	if err != nil {
		return nil, err
	}
	pkg, err := f.log.AuditPackageFor(chunks)
	if err != nil {
		return nil, err
	}
	if tamper != nil {
		tamper(pkg)
	}
	return f.hsms[i].LogHandleAudit(ctx, pkg)
}

// commit gathers every HSM's signature on the staged header and returns
// the honest, proved commit and the raw signatures.
func (f *forger) commit(ctx context.Context, hdr dlog.EpochHeader) (*dlog.CommitMessage, [][]byte, error) {
	raw := make([][]byte, len(f.hsms))
	sigs := make([]aggsig.Signature, len(f.hsms))
	signers := make([]int, len(f.hsms))
	for i := range f.hsms {
		var err error
		if raw[i], err = f.audit(ctx, i, hdr, nil); err != nil {
			return nil, nil, err
		}
		if sigs[i], err = aggsig.ParseSignature(raw[i]); err != nil {
			return nil, nil, err
		}
		signers[i] = i
	}
	cm, err := f.log.Commit(sigs, signers)
	if err != nil {
		return nil, nil, err
	}
	cm.Witness, cm.Preimage, err = dlog.ProveCommit(f.roster, cm)
	return cm, raw, err
}

// epoch stages an epoch and returns its honest commit.
func (f *forger) epoch(ctx context.Context, id string) (*dlog.CommitMessage, [][]byte, error) {
	hdr, err := f.stage(id)
	if err != nil {
		return nil, nil, err
	}
	return f.commit(ctx, hdr)
}

// offer hands cm to every HSM and counts those whose digest moved.
func (f *forger) offer(ctx context.Context, cm *dlog.CommitMessage) int {
	moved := 0
	for _, h := range f.hsms {
		before, _ := h.LogDigest()
		_ = h.LogHandleCommit(ctx, cm)
		if after, _ := h.LogDigest(); after != before {
			moved++
		}
	}
	return moved
}

// honest delivers an honest commit, which must move every HSM.
func (f *forger) honest(ctx context.Context, cm *dlog.CommitMessage) error {
	if n := f.offer(ctx, cm); n != len(f.hsms) {
		return fmt.Errorf("honest epoch %d commit moved %d of %d HSMs", cm.Header.Epoch, n, len(f.hsms))
	}
	return nil
}

// commitOffer is one commit that no HSM may move its digest on.
type commitOffer struct {
	name string
	cm   dlog.CommitMessage
}

// refuseAll offers every bogus commit and checks that no digest moved;
// it reports whether none did.
func (f *forger) refuseAll(ctx context.Context, ck *Checker, st *ScenarioStats, offers []commitOffer) bool {
	held := true
	for _, o := range offers {
		moved := f.offer(ctx, &o.cm)
		held = held && moved == 0
		ck.Check(st.Name, st.Engine, InvNoUnverifiedCommit, moved == 0,
			"%s: %d of %d HSMs moved their digest", o.name, moved, len(f.hsms))
	}
	return held
}

// runBogusWitness plays the provider against the fleet's commit check. It
// has the whole fleet audit and sign an epoch of its own log, and offers
// every HSM commits that must fail: a forged aggregate with the witness
// proved for it; the valid aggregate with a zero, a random, a
// non-canonical and the previous epoch's witness; and the valid aggregate
// with a witness proved for another signer set. No HSM may move its
// digest on any of them. The honest commits, delivered before and after,
// move every HSM.
func runBogusWitness(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	f := newForger(r)
	first, _, err := f.epoch(ctx, "bogus-witness/1")
	if err != nil {
		return err
	}
	if err := f.honest(ctx, first); err != nil {
		return err
	}
	cm, raw, err := f.epoch(ctx, "bogus-witness/2")
	if err != nil {
		return err
	}

	outsider, err := aggsig.KeyGen(crand.Reader)
	if err != nil {
		return err
	}
	extra, err := outsider.Sign(cm.Header.SigningBytes())
	if err != nil {
		return err
	}
	forgedAgg, err := aggsig.Aggregate(append(raw[1:], extra))
	if err != nil {
		return err
	}
	forged := *cm
	forged.AggSig = forgedAgg
	if forged.Witness, forged.Preimage, err = dlog.ProveCommit(f.roster, &forged); err != nil {
		return err
	}
	fewer := *cm
	fewer.Signers = cm.Signers[1:]
	otherSet, _, err := dlog.ProveCommit(f.roster, &fewer)
	if err != nil {
		return err
	}
	random := make([]byte, len(cm.Witness))
	if _, err := crand.Read(random); err != nil {
		return err
	}
	for i := 0; i < len(random); i += fpSize {
		random[i] &= 0x0f // below p's top byte 0x1a: canonical
	}

	if f.refuseAll(ctx, ck, st, []commitOffer{
		{"forged aggregate, its own witness", forged},
		{"zero witness", withWitness(cm, make([]byte, len(cm.Witness)))},
		{"random witness", withWitness(cm, random)},
		{"non-canonical witness", withWitness(cm, nonCanonical(cm.Witness))},
		{"previous epoch's witness", withWitness(cm, first.Witness)},
		{"witness for another signer set", withWitness(cm, otherSet)},
	}) {
		// An HSM that took a bogus commit has moved on; the honest
		// commit then proves nothing more.
		if err := f.honest(ctx, cm); err != nil {
			return err
		}
	}
	st.Guesses = burnAndProbe(ctx, cfg, r, ck, st, "bogus-witness")
	return nil
}

// runBogusHint plays the provider against the HSMs' checks of its hints.
// Every HSM is offered the epoch's audit package with a hash hint for
// another header, with one root replaced by the other branch's root or a
// random one, with a wrong affine point, and with no hint; every
// signature an HSM returns on any of them, or on the honest package, must
// verify over H(header) under that HSM's key. Then every HSM is offered
// the commit with the preimage of another aggregate, with an off-curve
// preimage and with none, and no HSM may move its digest. The honest
// commits, before and after, move every HSM.
func runBogusHint(ctx context.Context, cfg Config, r *rig, ck *Checker, st *ScenarioStats) error {
	f := newForger(r)
	first, _, err := f.epoch(ctx, "bogus-hint/1")
	if err != nil {
		return err
	}
	if err := f.honest(ctx, first); err != nil {
		return err
	}
	hdr, err := f.stage("bogus-hint/2")
	if err != nil {
		return err
	}
	want := aggsig.HashMessage(hdr.SigningBytes())
	other := hdr
	other.Epoch++
	_, otherHint := aggsig.ProveHash(other.SigningBytes())
	random := make([]byte, fpSize)
	if _, err := crand.Read(random); err != nil {
		return err
	}
	random[0] &= 0x0f // canonical
	withHint := func(edit func(h []byte) []byte) func(*dlog.AuditPackage) {
		return func(pkg *dlog.AuditPackage) { pkg.Hint = edit(append([]byte(nil), pkg.Hint...)) }
	}
	for _, o := range []struct {
		name   string
		tamper func(*dlog.AuditPackage)
	}{
		{"hint for another header", withHint(func([]byte) []byte { return otherHint })},
		{"the other branch's root", withHint(func(h []byte) []byte { return otherBranchRoot(h) })},
		{"random root", withHint(func(h []byte) []byte { copy(h[fpSize:], random); return h })},
		{"wrong affine point", withHint(func(h []byte) []byte { return negateCoordinate(h, 3) })},
		{"no hint", withHint(func([]byte) []byte { return nil })},
		{"honest package", nil},
	} {
		for i := range f.hsms {
			sig, err := f.audit(ctx, i, hdr, o.tamper)
			if err != nil {
				continue
			}
			ok, verr := aggsig.VerifyWithKey(f.keys[i], want, sig)
			ck.Check(st.Name, st.Engine, InvSignsHeaderHash, verr == nil && ok,
				"%s: HSM %d returned a signature that does not verify over H(header) (%v)", o.name, i, verr)
		}
	}
	cm, _, err := f.commit(ctx, hdr)
	if err != nil {
		return err
	}
	offCurve := append([]byte(nil), cm.Preimage...)
	offCurve[len(offCurve)-1] ^= 1
	withPreimage := func(pre []byte) dlog.CommitMessage {
		out := *cm
		out.Preimage = pre
		return out
	}
	if f.refuseAll(ctx, ck, st, []commitOffer{
		{"preimage of another aggregate", withPreimage(first.Preimage)},
		{"off-curve preimage", withPreimage(offCurve)},
		{"no preimage", withPreimage(nil)},
	}) {
		if err := f.honest(ctx, cm); err != nil {
			return err
		}
	}
	st.Guesses = burnAndProbe(ctx, cfg, r, ck, st, "bogus-hint")
	return nil
}

// pMod is the BLS12-381 base-field modulus.
var pMod, _ = new(big.Int).SetString("1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab", 16)

// otherBranchRoot replaces a hash hint's first root y by y·√−Z, Z = 11
// the SSWU non-square: the candidate sqrt_ratio would have returned had
// the other branch been the square one. p ≡ 3 (mod 4), so
// √a = a^((p+1)/4) for a square a.
func otherBranchRoot(hint []byte) []byte {
	negZ := new(big.Int).Sub(pMod, big.NewInt(11))
	c2 := new(big.Int).Exp(negZ, new(big.Int).Rsh(new(big.Int).Add(pMod, big.NewInt(1)), 2), pMod)
	y := new(big.Int).SetBytes(hint[:fpSize])
	y.Mul(y, c2).Mod(y, pMod).FillBytes(hint[:fpSize])
	return hint
}

// negateCoordinate replaces coordinate i of an encoding of 48-byte
// coordinates by its negation mod p.
func negateCoordinate(b []byte, i int) []byte {
	c := new(big.Int).SetBytes(b[i*fpSize : (i+1)*fpSize])
	c.Sub(pMod, c).Mod(c, pMod).FillBytes(b[i*fpSize : (i+1)*fpSize])
	return b
}

// fpSize is the size of one encoded base-field coordinate of a residue
// witness.
const fpSize = 48

// withWitness returns a copy of cm carrying witness w.
func withWitness(cm *dlog.CommitMessage, w []byte) dlog.CommitMessage {
	out := *cm
	out.Witness = w
	return out
}

// nonCanonical re-encodes the first coordinate of a witness as itself
// plus p: the same field element, in bytes a strict decoder refuses.
func nonCanonical(w []byte) []byte {
	out := append([]byte(nil), w...)
	c := new(big.Int).SetBytes(out[:fpSize])
	c.Add(c, pMod).FillBytes(out[:fpSize])
	return out
}
