package provider

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"safetypin/internal/aggsig"
	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
	"safetypin/internal/securestore"
	"safetypin/internal/storage"
)

// HSMHandle is the provider's view of one HSM: its message interface only.
// Every exchange takes a context so the epoch fan-out and the recovery
// relay can cancel in-flight work (locally or over a transport) when a
// deadline passes or the caller goes away.
type HSMHandle interface {
	ID() int
	LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error)
	LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error)
	LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error
	HandleRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error)
}

// EngineConfig tunes the provider's concurrency machinery. The zero value
// gives test-friendly defaults; a production deployment would raise
// BatchWindow (or set EpochInterval) toward the paper's ~10-minute epoch
// cadence.
type EngineConfig struct {
	// Shards is the number of lock stripes for per-user state (0 → 32).
	Shards int
	// BatchWindow is how long the epoch scheduler gathers concurrent log
	// insertions before committing them as one epoch (0 → 2ms; the paper
	// runs ~10 minutes).
	BatchWindow time.Duration
	// MaxBatch commits an epoch early once this many insertions are
	// pending (0 → 256).
	MaxBatch int
	// EpochWorkers bounds the audit fan-out worker pool (0 → min(16, fleet)).
	EpochWorkers int
	// AuditTimeout caps how long the epoch waits on any single HSM's audit
	// or commit before skipping it (0 → 30s). A hung HSM therefore delays
	// an epoch by at most this much instead of wedging it.
	AuditTimeout time.Duration
	// EpochInterval, when non-zero, runs a standing timer that commits
	// pending log insertions on this cadence even when no WaitForCommit
	// waiter is blocked — the daemon mode for the paper's true 10-minute
	// epochs with idle-trickle LogRecoveryAttempt traffic. Stop it with
	// Provider.Close.
	EpochInterval time.Duration
	// Storage, when non-nil, journals every durable state change —
	// attempt reservations, ciphertexts, log insertions and commits,
	// escrow, oracle blocks, roster — so Open can rebuild the provider
	// after a crash (Open reports a replay that fails). Nil keeps all
	// state in RAM.
	Storage storage.Engine
	// SnapshotEvery compacts the journal into a snapshot after every
	// N successful epoch commits (0 → 8; negative disables periodic
	// compaction — a snapshot is still written on Close).
	SnapshotEvery int
	// ExchangeRetries is how many times a transient HSM exchange
	// failure (connection reset, timeout-free I/O error) is retried
	// inside the epoch fan-out before the HSM is skipped, with capped
	// exponential backoff between tries (0 → 2; negative disables).
	// Protocol errors — an HSM rejecting an audit — are never retried,
	// and AuditTimeout stays the outer bound on the whole exchange.
	ExchangeRetries int
	// RetryBaseDelay is the first backoff step (0 → 25ms).
	RetryBaseDelay time.Duration
	// RetryMaxDelay caps the backoff growth (0 → 1s).
	RetryMaxDelay time.Duration
	// AttemptLimit caps recovery-attempt reservations per user:
	// ReserveAttempt fails with ErrAttemptLimit once a user's counter
	// reaches it. This is the provider-side half of the paper's k-guess
	// budget — the HSMs independently refuse over-limit attempts, so a
	// malicious provider gains nothing by ignoring it, but an honest
	// provider rejecting at the front door keeps over-limit guessing
	// traffic off the fleet. 0 or negative → unlimited (the provider
	// alone cannot know k; deployments wire it from Params.GuessLimit).
	AttemptLimit int
}

func (c EngineConfig) withDefaults() EngineConfig {
	if c.Shards <= 0 {
		c.Shards = 32
	}
	if c.BatchWindow <= 0 {
		c.BatchWindow = 2 * time.Millisecond
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 256
	}
	if c.AuditTimeout <= 0 {
		c.AuditTimeout = 30 * time.Second
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 8
	}
	if c.ExchangeRetries == 0 {
		c.ExchangeRetries = 2
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 25 * time.Millisecond
	}
	if c.RetryMaxDelay <= 0 {
		c.RetryMaxDelay = time.Second
	}
	return c
}

// escrowBox holds the escrowed replies of one user's newest recovery
// attempt. Replies from older attempts are dropped and replies are keyed by
// share position, so a crash-looping client holds at most one cluster's
// worth of provider memory.
type escrowBox struct {
	attempt int
	replies map[int]*protocol.RecoveryReply // share position → reply
	order   []int                           // positions in arrival order
}

// shard is one lock stripe of per-user state.
type shard struct {
	mu       sync.Mutex
	cts      map[string][][]byte   //spin:guardedby mu
	escrow   map[string]*escrowBox //spin:guardedby mu
	attempts map[string]int        //spin:guardedby mu
}

// Provider is the data-center state.
type Provider struct {
	log    *dlog.Provider
	sched  *epochScheduler
	engine EngineConfig

	shards []*shard

	fleetMu sync.RWMutex
	hsms    map[int]HSMHandle       //spin:guardedby fleetMu
	oracles map[int]*providerOracle //spin:guardedby fleetMu
	roster  map[int]RosterEntry     //spin:guardedby fleetMu
	// signing is the fleet's aggregate-signature roster, from which the
	// provider proves each epoch commit (dlog.ProveCommit).
	signing *aggsig.RosterCache //spin:guardedby fleetMu

	// store is the durability journal (nil = volatile provider).
	store storage.Engine
	// durMu guards lastCommit and snapshot construction ordering.
	durMu      sync.Mutex
	lastCommit *dlog.CommitMessage //spin:guardedby durMu

	closeOnce sync.Once
	closeErr  error
}

// Open creates a provider, replaying engine.Storage first when set: the
// journal rebuilds attempt counters, ciphertexts, the committed log and
// its epoch counter, escrow, hosted oracle blocks, and the HSM roster.
// Uncommitted pending log insertions are dropped (their clients were
// never acknowledged) and the drop itself is journaled so later replays
// stay aligned. After recovery the journal hooks are enabled and the
// epoch scheduler starts.
func Open(logCfg dlog.Config, engine EngineConfig) (*Provider, error) {
	engine = engine.withDefaults()
	p := &Provider{
		log:     dlog.NewProvider(logCfg),
		engine:  engine,
		shards:  make([]*shard, engine.Shards),
		hsms:    make(map[int]HSMHandle),
		oracles: make(map[int]*providerOracle),
		roster:  make(map[int]RosterEntry),
		store:   engine.Storage,
	}
	for i := range p.shards {
		p.shards[i] = &shard{
			cts:      make(map[string][][]byte),
			escrow:   make(map[string]*escrowBox),
			attempts: make(map[string]int),
		}
	}
	if p.store != nil {
		if err := p.recover(); err != nil {
			return nil, err
		}
		p.log.SetJournal(p.journalLogInsert, p.journalEpochCommit)
	}
	p.sched = newEpochScheduler(p)
	return p, nil
}

// Close stops the provider's background machinery, wakes every blocked
// WaitForCommit waiter with ErrProviderClosed, and — when durable
// storage is attached — writes a final snapshot and closes the engine,
// so a clean shutdown needs no WAL replay on the next Open. Safe to
// call more than once.
func (p *Provider) Close() error {
	p.closeOnce.Do(func() {
		p.sched.close()
		if p.store != nil {
			// commitMu drains any in-flight epoch (which journals through
			// the store) before the final snapshot and engine close; rounds
			// started after close() never take commitMu.
			p.sched.commitMu.Lock()
			defer p.sched.commitMu.Unlock()
			if err := p.SnapshotNow(); err != nil {
				p.closeErr = err
			}
			if err := p.store.Close(); err != nil && p.closeErr == nil {
				p.closeErr = err
			}
		}
	})
	return p.closeErr
}

// shardFor returns the lock stripe owning a user's state (inline FNV-1a:
// this sits on every per-user hot path and must not allocate).
func (p *Provider) shardFor(user string) *shard {
	h := uint32(2166136261)
	for i := 0; i < len(user); i++ {
		h ^= uint32(user[i])
		h *= 16777619
	}
	return p.shards[h%uint32(len(p.shards))]
}

// OracleFor returns (creating on demand) the outsourced block store hosted
// for one HSM. The handle journals every block write, so a recovered
// provider serves back the blocks the HSM last stored.
func (p *Provider) OracleFor(hsmID int) securestore.Oracle {
	return p.oracleHandle(hsmID)
}

func (p *Provider) oracleHandle(hsmID int) *providerOracle {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	o, ok := p.oracles[hsmID]
	if !ok {
		o = &providerOracle{p: p, hsmID: hsmID, mem: securestore.NewMemOracle()}
		p.oracles[hsmID] = o
	}
	return o
}

// ReplaceOracle empties the HSM's hosted store for a key rotation and
// returns the handle (same handle, fresh contents — live references keep
// working).
//
//spin:testhook open item: The log's lifecycle as protocol
func (p *Provider) ReplaceOracle(hsmID int) securestore.Oracle {
	o := p.oracleHandle(hsmID)
	o.mu.Lock()
	defer o.mu.Unlock()
	// Best-effort: if the clear fails to journal, the fresh KeyGen's
	// block writes (which go through the same broken engine) will fail
	// and abort the rotation anyway.
	_ = p.journalSync(&storage.OracleClearRecord{HSMID: uint32(hsmID)})
	o.mem = securestore.NewMemOracle()
	return o
}

// Register attaches an HSM handle to the fleet.
func (p *Provider) Register(h HSMHandle) {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	p.hsms[h.ID()] = h
}

// SetSigningRoster installs the fleet's aggregate-signature roster in
// fleet order. Every epoch commit carries a residue witness proved
// against it, and an epoch without one fails before it starts.
func (p *Provider) SetSigningRoster(r *aggsig.RosterCache) {
	p.fleetMu.Lock()
	defer p.fleetMu.Unlock()
	p.signing = r
}

func (p *Provider) signingRoster() *aggsig.RosterCache {
	p.fleetMu.RLock()
	defer p.fleetMu.RUnlock()
	return p.signing
}

// handles snapshots the registered fleet.
func (p *Provider) handles() []HSMHandle {
	p.fleetMu.RLock()
	defer p.fleetMu.RUnlock()
	out := make([]HSMHandle, 0, len(p.hsms))
	for _, h := range p.hsms {
		out = append(out, h)
	}
	return out
}

// --- ciphertext storage (client.BackupStore) ---

// StoreCiphertext saves a client's recovery ciphertext.
func (p *Provider) StoreCiphertext(ctx context.Context, user string, ct []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if user == "" {
		return errors.New("provider: empty user")
	}
	s := p.shardFor(user)
	s.mu.Lock()
	if err := p.journal(&storage.CiphertextRecord{
		User:  user,
		Index: uint32(len(s.cts[user])),
		Blob:  ct,
	}); err != nil {
		s.mu.Unlock()
		return err
	}
	s.cts[user] = append(s.cts[user], append([]byte(nil), ct...))
	s.mu.Unlock()
	// Durable before the client is told its backup exists.
	return p.syncStore()
}

// FetchCiphertext returns the client's latest recovery ciphertext.
func (p *Provider) FetchCiphertext(ctx context.Context, user string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := p.shardFor(user)
	s.mu.Lock()
	defer s.mu.Unlock()
	list := s.cts[user]
	if len(list) == 0 {
		return nil, fmt.Errorf("provider: no backup for user %q", user)
	}
	return append([]byte(nil), list[len(list)-1]...), nil
}

// --- distributed log (client.LogService) ---

// AttemptCount returns the number of recovery attempts already reserved or
// logged for a user (the next free attempt number).
func (p *Provider) AttemptCount(ctx context.Context, user string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s := p.shardFor(user)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempts[user], nil
}

// ErrAttemptLimit reports a recovery-attempt reservation refused because
// the user's guess budget (EngineConfig.AttemptLimit) is exhausted.
var ErrAttemptLimit = errors.New("provider: attempt limit reached")

// ReserveAttempt atomically allocates the next attempt number for a user.
// Two concurrent recoveries of the same user receive distinct indices, so
// their log insertions never collide. When EngineConfig.AttemptLimit is
// set, an exhausted user gets ErrAttemptLimit instead of an index — and
// the rejection itself is journaled and synced before it is served, so
// the counter that justified it can never regress across a crash (the
// counter may have been advanced by records still in the unsynced
// journal tail, e.g. the LogRecoveryAttempt path).
func (p *Provider) ReserveAttempt(ctx context.Context, user string) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s := p.shardFor(user)
	s.mu.Lock()
	n := s.attempts[user]
	if lim := p.engine.AttemptLimit; lim > 0 && n >= lim {
		err := p.journal(&storage.AttemptRejectRecord{User: user, Attempt: uint32(n)})
		s.mu.Unlock()
		if err != nil {
			return 0, err
		}
		if err := p.syncStore(); err != nil {
			return 0, err
		}
		return 0, fmt.Errorf("%w: user %q burned %d of %d guesses", ErrAttemptLimit, user, n, lim)
	}
	if err := p.journal(&storage.AttemptRecord{User: user, Attempt: uint32(n)}); err != nil {
		s.mu.Unlock()
		return 0, err
	}
	s.attempts[user] = n + 1
	s.mu.Unlock()
	// The reservation must hit stable storage before the client learns
	// its attempt number: a kill -9 after the ack can never un-burn the
	// guess. (If the sync fails the counter stays advanced in RAM —
	// erring toward fewer guesses, never more.)
	if err := p.syncStore(); err != nil {
		return 0, err
	}
	return n, nil
}

// LogRecoveryAttempt inserts (LogID(user, attempt) → commitment) into the
// pending log batch for the next scheduled epoch.
func (p *Provider) LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := p.log.Append(protocol.LogID(user, attempt), commitment); err != nil {
		return err
	}
	s := p.shardFor(user)
	s.mu.Lock()
	// Direct callers may log attempt numbers they chose themselves; keep
	// the counter ahead of any observed index (ReserveAttempt already
	// advanced it for the client path). The advance is journaled but not
	// synced — the insertion itself only becomes visible at the epoch
	// barrier, which is the sync point.
	if attempt >= s.attempts[user] {
		if err := p.journal(&storage.AttemptRecord{User: user, Attempt: uint32(attempt)}); err != nil {
			s.mu.Unlock()
			return err
		}
		s.attempts[user] = attempt + 1
	}
	s.mu.Unlock()
	p.sched.notePending(p.log.PendingLen())
	return nil
}

// RunEpoch forces one log-update epoch over everything currently pending
// (Figure 5): build, audit at every reachable HSM in parallel, aggregate,
// commit. HSMs that fail mid-protocol are skipped; the epoch succeeds if a
// quorum signs. Cancelling ctx abandons the wait (the epoch still runs for
// other subscribers). Tests and administrative tools call this directly;
// clients wait on the scheduler via WaitForCommit instead.
func (p *Provider) RunEpoch(ctx context.Context) error {
	return p.sched.commitNow(ctx)
}

// WaitForCommit blocks until every log insertion appended before the call
// has been committed by an epoch (or the epoch attempt failed). Many
// concurrent callers share one epoch — this is the paper's batching,
// compressed from ten minutes to the engine's BatchWindow. A caller whose
// ctx is cancelled is unsubscribed from the round and returns ctx.Err();
// the shared epoch is unaffected.
func (p *Provider) WaitForCommit(ctx context.Context) error {
	return p.sched.waitForCommit(ctx)
}

// PendingLogLen returns queued-but-uncommitted log insertions.
func (p *Provider) PendingLogLen() int { return p.log.PendingLen() }

// FetchInclusionProof serves a log-inclusion proof for a committed entry.
func (p *Provider) FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return p.log.ProveInclusion(protocol.LogID(user, attempt), commitment)
}

// LogEntries exposes the committed log for external auditors (§6.3).
func (p *Provider) LogEntries() []logtree.Entry { return p.log.Entries() }

// LogDigest returns the provider's committed digest.
func (p *Provider) LogDigest() logtree.Digest { return p.log.Digest() }

// GarbageCollectLog clears the log state (HSMs must consent via their own
// bounded-budget GarbageCollect).
//
//spin:testhook open item: The log's lifecycle as protocol
func (p *Provider) GarbageCollectLog() {
	// Journal first: replay must reset at the same point in the record
	// stream, before any post-GC insertions.
	_ = p.journalSync(&storage.GCRecord{})
	p.log.GarbageCollect()
	for _, s := range p.shards {
		s.mu.Lock()
		s.attempts = make(map[string]int)
		s.mu.Unlock()
	}
}

// --- recovery relay (client.RecoveryService) ---

// RelayRecover forwards a recovery request to the addressed HSM and escrows
// the sealed reply so a replacement device can finish an interrupted
// recovery (§8). The reply is encrypted under the client's ephemeral key,
// so escrow reveals nothing to the provider. Escrow is keyed by
// (user, attempt): a reply for a newer attempt evicts older ones, and
// replies for attempts older than the newest seen are dropped, bounding
// per-user escrow memory at one cluster of replies. The context propagates
// into the HSM exchange: a client that cancels (say, because it already
// holds a threshold of shares) aborts the in-flight HSM request rather
// than leaking it.
func (p *Provider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	if req.SharePos < 0 || req.SharePos >= len(req.Cluster) {
		return nil, errors.New("provider: malformed cluster opening")
	}
	target := req.Cluster[req.SharePos]
	p.fleetMu.RLock()
	h, ok := p.hsms[target]
	p.fleetMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("provider: no HSM %d registered", target)
	}
	reply, err := h.HandleRecover(ctx, req)
	if err != nil {
		return nil, err
	}
	s := p.shardFor(req.User)
	s.mu.Lock()
	box := s.escrow[req.User]
	if box != nil && req.Attempt < box.attempt {
		// Stale attempt: serve the reply but do not escrow it.
		s.mu.Unlock()
		return reply, nil
	}
	// Journal before mutating so a storage failure leaves RAM and
	// journal agreeing; replay re-applies the same eviction rule.
	if err := p.journal(&storage.EscrowRecord{
		User:     req.User,
		Attempt:  uint32(req.Attempt),
		HSMIndex: uint32(reply.HSMIndex),
		SharePos: uint32(reply.SharePos),
		Box:      reply.Box,
	}); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if box == nil || req.Attempt > box.attempt {
		box = &escrowBox{attempt: req.Attempt, replies: make(map[int]*protocol.RecoveryReply)}
		s.escrow[req.User] = box
	}
	if _, seen := box.replies[req.SharePos]; !seen {
		box.order = append(box.order, req.SharePos)
	}
	box.replies[req.SharePos] = reply
	s.mu.Unlock()
	// Write-only, not synced: the record reaches the OS before the reply
	// is served, so it survives a process kill; full power-loss
	// durability arrives with the next epoch barrier. The client holding
	// the in-flight reply covers the sliver in between — escrow exists
	// for the CLIENT's crash, and syncing here would put an fsync on
	// every relayed share (the hot path the epoch barrier exists to
	// protect).
	return reply, nil
}

// FetchEscrowedReplies returns the sealed replies of a user's latest
// recovery attempt for a replacement device.
func (p *Provider) FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := p.shardFor(user)
	s.mu.Lock()
	defer s.mu.Unlock()
	box := s.escrow[user]
	if box == nil {
		return nil, nil
	}
	out := make([]*protocol.RecoveryReply, 0, len(box.order))
	for _, pos := range box.order {
		out = append(out, box.replies[pos])
	}
	return out, nil
}

// EscrowedAttempt reports which attempt a user's escrow currently holds
// (-1 when empty); exposed for escrow-bounding tests.
func (p *Provider) EscrowedAttempt(user string) int {
	s := p.shardFor(user)
	s.mu.Lock()
	defer s.mu.Unlock()
	if box := s.escrow[user]; box != nil {
		return box.attempt
	}
	return -1
}

// ClearEscrow drops a user's escrowed replies (after a completed recovery).
func (p *Provider) ClearEscrow(ctx context.Context, user string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	s := p.shardFor(user)
	s.mu.Lock()
	if err := p.journal(&storage.EscrowClearRecord{User: user}); err != nil {
		s.mu.Unlock()
		return err
	}
	delete(s.escrow, user)
	s.mu.Unlock()
	// Write-only: losing an escrow clear to a power cut merely leaves
	// stale (already-punctured, undecryptable) replies behind, so the
	// clear rides the next epoch barrier rather than forcing its own
	// fsync on every completed recovery.
	return nil
}
