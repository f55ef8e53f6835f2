package transport

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"time"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
	"safetypin/internal/dlog"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
	"safetypin/internal/provider"
	"safetypin/internal/storage"
)

// ProviderDaemon hosts the untrusted data-center side as a network service.
type ProviderDaemon struct {
	mu       sync.Mutex
	cfg      FleetConfig
	p        *provider.Provider
	fleetPKs [][]byte // BFE public keys by HSM id
	aggPKs   [][]byte
	hsmAddrs map[int]string
	remotes  map[int]*RemoteHSM
	rosterOK bool
}

// DaemonOption configures daemon-local machinery that is not part of the
// wire-negotiated FleetConfig — durable storage above all. Keeping these
// out of FleetConfig matters: FleetConfig rides the wire to HSM daemons
// and clients, and a provider's storage layout is nobody's business but
// its own.
type DaemonOption func(*daemonConfig)

type daemonConfig struct {
	storage       storage.Engine
	snapshotEvery int
	attemptLimit  int
}

// WithStorageEngine journals all provider state through eng, so the
// daemon survives a crash or restart with its log, attempt counters,
// escrow, hosted oracle blocks, and fleet roster intact.
func WithStorageEngine(eng storage.Engine) DaemonOption {
	return func(c *daemonConfig) { c.storage = eng }
}

// WithSnapshotEvery sets the journal compaction cadence in epoch commits
// (0 → provider default; negative disables periodic compaction).
func WithSnapshotEvery(n int) DaemonOption {
	return func(c *daemonConfig) { c.snapshotEvery = n }
}

// WithAttemptLimit makes the provider reject ReserveAttempt calls once a
// user has burned n guesses (provider.ErrAttemptLimit), mirroring the
// HSM-side guess limit at the front door. 0 → unlimited, the daemon's
// historical behavior.
func WithAttemptLimit(n int) DaemonOption {
	return func(c *daemonConfig) { c.attemptLimit = n }
}

// NewProviderDaemon builds the daemon state for a fleet of cfg.NumHSMs.
// With WithStorageEngine the provider state is first recovered from the
// journal, journaled HSM registrations are re-dialed (best effort — an
// HSM daemon that is still down re-registers on its own later), and the
// last committed epoch is re-delivered to HSMs that missed its fan-out.
func NewProviderDaemon(cfg FleetConfig, opts ...DaemonOption) (*ProviderDaemon, error) {
	var dc daemonConfig
	for _, o := range opts {
		o(&dc)
	}
	if err := checkScheme(cfg.SchemeName, cfg.HashModeName); err != nil {
		return nil, err
	}
	// Refused here, not at every HSM's provisioning: the config rides the
	// wire, which carries no negative int.
	if _, err := fleetConfigL.encode(cfg); err != nil {
		return nil, fmt.Errorf("transport: fleet config: %w", err)
	}
	logCfg := dlog.Config{
		NumChunks:     cfg.LogChunks,
		AuditsPerHSM:  cfg.AuditsPerHSM,
		MinSignerFrac: cfg.MinSignerFrac,
		Deterministic: cfg.Deterministic,
	}
	engine := provider.EngineConfig{
		BatchWindow:   time.Duration(cfg.EpochBatchMS) * time.Millisecond,
		MaxBatch:      cfg.EpochMaxBatch,
		EpochWorkers:  cfg.EpochWorkers,
		EpochInterval: time.Duration(cfg.EpochIntervalMS) * time.Millisecond,
		Storage:       dc.storage,
		SnapshotEvery: dc.snapshotEvery,
		AttemptLimit:  dc.attemptLimit,
	}
	p, err := provider.Open(logCfg, engine)
	if err != nil {
		return nil, err
	}
	d := &ProviderDaemon{
		cfg:      cfg,
		p:        p,
		fleetPKs: make([][]byte, cfg.NumHSMs),
		aggPKs:   make([][]byte, cfg.NumHSMs),
		hsmAddrs: make(map[int]string),
		remotes:  make(map[int]*RemoteHSM),
	}
	if dc.storage != nil {
		d.restoreRoster()
		if cache, err := parseRoster(d.aggPKs); err == nil {
			d.p.SetSigningRoster(cache)
		}
		// Catch up any HSM that missed the last epoch's commit fan-out
		// before the crash; HSMs already at the digest reject the
		// duplicate harmlessly.
		p.ResendLastCommit(context.Background())
	}
	return d, nil
}

// restoreRoster re-dials every journaled HSM registration. Failures are
// tolerated: an HSM daemon that is down re-registers itself when it
// comes back, through the same path as at first provisioning.
func (d *ProviderDaemon) restoreRoster() {
	for _, e := range d.p.RecoveredRoster() {
		if e.ID < 0 || e.ID >= d.cfg.NumHSMs {
			continue
		}
		remote, err := NewRemoteHSM(e.ID, e.Addr)
		if err != nil {
			continue
		}
		d.mu.Lock()
		d.fleetPKs[e.ID] = e.BFEPub
		d.aggPKs[e.ID] = e.AggPub
		d.hsmAddrs[e.ID] = e.Addr
		d.remotes[e.ID] = remote
		d.mu.Unlock()
		d.p.Register(remote)
	}
}

// Close stops the daemon's provider engine (standing epoch timer) and,
// with durable storage attached, snapshots and closes the engine.
func (d *ProviderDaemon) Close() error { return d.p.Close() }

// Shutdown is the graceful stop: commit whatever log insertions are
// still pending (so no client's acknowledged-but-uncommitted attempt is
// stranded), then Close. ctx bounds the final epoch; on expiry the
// pending batch is abandoned to the journal's pending-drop recovery path
// and Close proceeds anyway.
func (d *ProviderDaemon) Shutdown(ctx context.Context) error {
	if d.p.PendingLogLen() > 0 {
		// Best effort: a failed or timed-out flush falls through to Close,
		// whose journal recovery drops the never-acknowledged batch.
		_ = d.p.RunEpoch(ctx)
	}
	return d.Close()
}

// Provider exposes the daemon's provider for in-process administrative
// tooling and tests.
func (d *ProviderDaemon) Provider() *provider.Provider { return d.p }

// checkScheme refuses a fleet config this build cannot join. The scheme
// name must be "bls12381-multisig" or "" (a provider that predates the
// field); a fleet of any other scheme is re-provisioned. The hash-mode
// name must be "rfc9380", the only BLS message hash: "" (a provider that
// predates the field) and "legacy" name fleets whose logs were signed
// with the retired try-and-increment hash, which are re-provisioned too.
func checkScheme(name, hashMode string) error {
	if name != "" && name != aggsig.Name {
		return fmt.Errorf("transport: signature scheme %q is not supported; only %q is (see docs/MIGRATION.md)", name, aggsig.Name)
	}
	if hashMode != "rfc9380" {
		return fmt.Errorf("transport: BLS hash mode %q is not supported; only \"rfc9380\" is (see docs/MIGRATION.md)", hashMode)
	}
	return nil
}

// --- daemon-side service logic ---

// register records a provisioned HSM daemon and dials it back. It refuses
// a signing key that does not parse and a key already registered under
// another id: one HSM holding two roster slots, or a copy of another's
// key, would stall every epoch. Byte equality is key equality here:
// aggsig.ParsePublicKey accepts exactly one encoding per key, and a BFE
// public key is two fixed u32 parameters then canonical points. An id
// re-registering its own keys succeeds.
func (d *ProviderDaemon) register(args RegisterArgs) error {
	if args.ID < 0 || args.ID >= d.cfg.NumHSMs {
		return fmt.Errorf("transport: HSM id %d outside fleet of %d", args.ID, d.cfg.NumHSMs)
	}
	if _, err := aggsig.ParsePublicKey(args.AggSigPub); err != nil {
		return fmt.Errorf("transport: HSM %d signing key: %w", args.ID, err)
	}
	remote, err := NewRemoteHSM(args.ID, args.Addr)
	if err != nil {
		return err
	}
	d.mu.Lock()
	for id := range d.aggPKs {
		if id == args.ID || d.aggPKs[id] == nil {
			continue
		}
		if bytes.Equal(d.aggPKs[id], args.AggSigPub) || bytes.Equal(d.fleetPKs[id], args.BFEPub) {
			d.mu.Unlock()
			remote.c.Close()
			return fmt.Errorf("transport: HSM %d registers a key of HSM %d", args.ID, id)
		}
	}
	d.fleetPKs[args.ID] = args.BFEPub
	d.aggPKs[args.ID] = args.AggSigPub
	d.hsmAddrs[args.ID] = args.Addr
	d.remotes[args.ID] = remote
	d.mu.Unlock()
	d.p.Register(remote)
	// Durable before the HSM's registration is acknowledged: a restarted
	// provider re-dials its fleet from the journaled roster.
	return d.p.JournalRoster(provider.RosterEntry{
		ID:     args.ID,
		Addr:   args.Addr,
		BFEPub: args.BFEPub,
		AggPub: args.AggSigPub,
	})
}

func (d *ProviderDaemon) status() FleetStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := FleetStatus{Expected: d.cfg.NumHSMs, RosterSent: d.rosterOK}
	for id := range d.remotes {
		st.Registered = append(st.Registered, id)
	}
	return st
}

func (d *ProviderDaemon) installRosters(ctx context.Context) error {
	d.mu.Lock()
	if len(d.remotes) != d.cfg.NumHSMs {
		n := len(d.remotes)
		d.mu.Unlock()
		return fmt.Errorf("transport: only %d of %d HSMs registered", n, d.cfg.NumHSMs)
	}
	roster := make([][]byte, d.cfg.NumHSMs)
	copy(roster, d.aggPKs)
	remotes := make([]*RemoteHSM, 0, len(d.remotes))
	for _, r := range d.remotes {
		remotes = append(remotes, r)
	}
	d.mu.Unlock()
	for _, r := range remotes {
		if err := r.InstallRoster(ctx, roster); err != nil {
			return err
		}
	}
	cache, err := parseRoster(roster)
	if err != nil {
		return err
	}
	d.p.SetSigningRoster(cache)
	d.mu.Lock()
	d.rosterOK = true
	d.mu.Unlock()
	return nil
}

func (d *ProviderDaemon) fleetKeys() ([][]byte, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for id, pk := range d.fleetPKs {
		if pk == nil {
			return nil, fmt.Errorf("transport: HSM %d not yet registered", id)
		}
	}
	return append([][]byte(nil), d.fleetPKs...), nil
}

// WireRegistry builds the daemon's dispatch table. Handlers receive the
// per-call context: cancellation (a cancel frame, or the client
// disconnecting) aborts the underlying provider operation, including a
// blocked WaitForCommit and in-flight RelayRecover HSM exchanges.
func (d *ProviderDaemon) WireRegistry() *Registry {
	reg := NewRegistry()
	p := d.p
	handle(reg, opProviderConfig, func(context.Context, none) (FleetConfig, error) { return d.cfg, nil })
	handle(reg, opOracleGetMany, func(_ context.Context, a OracleBatchArgs) ([][]byte, error) {
		return p.OracleFor(a.HSMID).GetMany(a.Addrs)
	})
	handle(reg, opOraclePutMany, func(_ context.Context, a OracleBatchArgs) (none, error) {
		return none{}, p.OracleFor(a.HSMID).PutMany(a.Addrs, a.Blocks)
	})
	handle(reg, opRegister, func(_ context.Context, a RegisterArgs) (none, error) { return none{}, d.register(a) })
	handle(reg, opStatus, func(context.Context, none) (FleetStatus, error) { return d.status(), nil })
	handle(reg, opInstallRosters, func(ctx context.Context, _ none) (none, error) { return none{}, d.installRosters(ctx) })
	handle(reg, opFetchFleet, func(context.Context, none) ([][]byte, error) { return d.fleetKeys() })
	handle(reg, opStoreCiphertext, func(ctx context.Context, a StoreCiphertextArgs) (none, error) {
		return none{}, p.StoreCiphertext(ctx, a.User, a.CT)
	})
	handle(reg, opFetchCiphertext, p.FetchCiphertext)
	handle(reg, opAttemptCount, p.AttemptCount)
	handle(reg, opReserveAttempt, p.ReserveAttempt)
	handle(reg, opLogRecoveryAttempt, func(ctx context.Context, a AttemptArgs) (none, error) {
		return none{}, p.LogRecoveryAttempt(ctx, a.User, a.Attempt, a.Commitment)
	})
	handle(reg, opWaitForCommit, func(ctx context.Context, _ none) (none, error) { return none{}, p.WaitForCommit(ctx) })
	handle(reg, opFetchInclusionProof, func(ctx context.Context, a AttemptArgs) (*logtree.Trace, error) {
		return p.FetchInclusionProof(ctx, a.User, a.Attempt, a.Commitment)
	})
	handle(reg, opRelayRecover, p.RelayRecover)
	handle(reg, opFetchEscrow, p.FetchEscrowedReplies)
	handle(reg, opClearEscrow, func(ctx context.Context, user string) (none, error) { return none{}, p.ClearEscrow(ctx, user) })
	handle(reg, opLogEntries, func(context.Context, none) ([]logtree.Entry, error) { return p.LogEntries(), nil })
	handle(reg, opLogDigest, func(context.Context, none) (logtree.Digest, error) { return p.LogDigest(), nil })
	return reg
}

// Service returns nil.
//
// Deprecated: wire v3 has no net/rpc surface. Service stays only for the
// benchmark harness, which passes its result to Serve's ignored legacy
// argument, until that harness is next changed.
func (d *ProviderDaemon) Service() any { return nil }

// --- client-side proxy ---

// RemoteProvider implements the role-scoped client.Provider interface over
// the wire: every call carries its context, so client-side deadlines
// cancel the matching server-side handler.
type RemoteProvider struct {
	c *Conn
}

var _ client.Provider = (*RemoteProvider)(nil)

// DialProvider connects a client to a provider daemon.
func DialProvider(addr string) (*RemoteProvider, error) {
	c, err := DialWire(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteProvider{c: c}, nil
}

// Fleet downloads and parses the fleet's BFE public keys.
func (r *RemoteProvider) Fleet(ctx context.Context) (*bfe.Fleet, error) {
	raw, err := invoke(ctx, r.c.Call, opFetchFleet, none{})
	if err != nil {
		return nil, err
	}
	keys := make([]*bfe.PublicKey, len(raw))
	for i, b := range raw {
		pk, err := bfe.PublicKeyFromBytes(b)
		if err != nil {
			return nil, fmt.Errorf("transport: fleet key %d: %w", i, err)
		}
		keys[i] = pk
	}
	return bfe.NewFleet(keys), nil
}

// Config fetches the fleet configuration.
func (r *RemoteProvider) Config(ctx context.Context) (FleetConfig, error) {
	return invoke(ctx, r.c.Call, opProviderConfig, none{})
}

// StoreCiphertext implements client.BackupStore.
func (r *RemoteProvider) StoreCiphertext(ctx context.Context, user string, ct []byte) error {
	_, err := invoke(ctx, r.c.Call, opStoreCiphertext, StoreCiphertextArgs{User: user, CT: ct})
	return err
}

// FetchCiphertext implements client.BackupStore.
func (r *RemoteProvider) FetchCiphertext(ctx context.Context, user string) ([]byte, error) {
	return invoke(ctx, r.c.Call, opFetchCiphertext, user)
}

// AttemptCount implements client.LogService.
func (r *RemoteProvider) AttemptCount(ctx context.Context, user string) (int, error) {
	return invoke(ctx, r.c.Call, opAttemptCount, user)
}

// ReserveAttempt implements client.LogService. A reservation mutates state
// the HSM guess limit charges against, so RPC failures surface instead of
// being mistaken for index 0.
func (r *RemoteProvider) ReserveAttempt(ctx context.Context, user string) (int, error) {
	return invoke(ctx, r.c.Call, opReserveAttempt, user)
}

// LogRecoveryAttempt implements client.LogService.
func (r *RemoteProvider) LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error {
	_, err := invoke(ctx, r.c.Call, opLogRecoveryAttempt, AttemptArgs{User: user, Attempt: attempt, Commitment: commitment})
	return err
}

// WaitForCommit implements client.LogService. Cancelling ctx sends a
// cancel frame: the daemon unsubscribes the server-side waiter from its
// epoch round, so an abandoned wait leaks nothing on either end.
func (r *RemoteProvider) WaitForCommit(ctx context.Context) error {
	_, err := invoke(ctx, r.c.Call, opWaitForCommit, none{})
	return err
}

// FetchInclusionProof implements client.LogService.
func (r *RemoteProvider) FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error) {
	return invoke(ctx, r.c.Call, opFetchInclusionProof, AttemptArgs{User: user, Attempt: attempt, Commitment: commitment})
}

// RelayRecover implements client.RecoveryService. The context rides the
// wire: cancelling aborts the daemon-side relay and its in-flight HSM
// exchange.
func (r *RemoteProvider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	return invoke(ctx, r.c.Call, opRelayRecover, req)
}

// FetchEscrowedReplies implements client.RecoveryService.
func (r *RemoteProvider) FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error) {
	return invoke(ctx, r.c.Call, opFetchEscrow, user)
}

// ClearEscrow implements client.RecoveryService.
func (r *RemoteProvider) ClearEscrow(ctx context.Context, user string) error {
	_, err := invoke(ctx, r.c.Call, opClearEscrow, user)
	return err
}

// LogEntries fetches the public log (external auditor path).
func (r *RemoteProvider) LogEntries(ctx context.Context) ([]logtree.Entry, error) {
	return invoke(ctx, r.c.Call, opLogEntries, none{})
}

// LogDigest fetches the provider's committed digest.
func (r *RemoteProvider) LogDigest(ctx context.Context) (logtree.Digest, error) {
	return invoke(ctx, r.c.Call, opLogDigest, none{})
}

// Status fetches fleet registration progress.
func (r *RemoteProvider) Status(ctx context.Context) (FleetStatus, error) {
	return invoke(ctx, r.c.Call, opStatus, none{})
}

// InstallRosters asks the provider to push the signing roster fleet-wide.
func (r *RemoteProvider) InstallRosters(ctx context.Context) error {
	_, err := invoke(ctx, r.c.Call, opInstallRosters, none{})
	return err
}

// RegisterHSM announces a provisioned HSM daemon (used by cmd/hsmd).
func (r *RemoteProvider) RegisterHSM(ctx context.Context, args RegisterArgs) error {
	_, err := invoke(ctx, r.c.Call, opRegister, args)
	return err
}

// Close tears down the connection.
func (r *RemoteProvider) Close() error { return r.c.Close() }
