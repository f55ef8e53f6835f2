package transport

import (
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

// --- daemon-side service logic (shared by both wire versions) ---

func (d *ProviderDaemon) register(args *RegisterArgs) error {
	if args.ID < 0 || args.ID >= d.cfg.NumHSMs {
		return fmt.Errorf("transport: HSM id %d outside fleet of %d", args.ID, d.cfg.NumHSMs)
	}
	remote, err := NewRemoteHSM(args.ID, args.Addr)
	if err != nil {
		return err
	}
	d.mu.Lock()
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

// oracleGet and oraclePut answer the single-block oracle calls (tags
// 0x11/0x12 and the v1 shim), which no current HSM daemon sends, as
// one-block batches.
func (d *ProviderDaemon) oracleGet(a *OracleArgs) ([]byte, error) {
	blocks, err := d.p.OracleFor(a.HSMID).GetMany([]uint64{a.Addr})
	if err != nil {
		return nil, err
	}
	if len(blocks[0]) == 0 {
		return nil, fmt.Errorf("transport: no block at address %d", a.Addr)
	}
	return blocks[0], nil
}

func (d *ProviderDaemon) oraclePut(a *OracleArgs) error {
	return d.p.OracleFor(a.HSMID).PutMany([]uint64{a.Addr}, [][]byte{a.Block})
}

// --- v2 wire registry ---

// WireRegistry builds the daemon's v2 dispatch table. Handlers receive the
// per-call context: cancellation (a cancel frame, or the client
// disconnecting) aborts the underlying provider operation, including a
// blocked WaitForCommit and in-flight RelayRecover HSM exchanges.
func (d *ProviderDaemon) WireRegistry() *Registry {
	reg := NewRegistry()
	handleWire(reg, MsgProviderConfig, func(ctx context.Context, _ *Nothing) (*FleetConfig, error) {
		cfg := d.cfg
		return &cfg, nil
	})
	handleWire(reg, MsgOracleGet, func(ctx context.Context, a *OracleArgs) (*BytesReply, error) {
		b, err := d.oracleGet(a)
		if err != nil {
			return nil, err
		}
		return &BytesReply{B: b}, nil
	})
	handleWire(reg, MsgOraclePut, func(ctx context.Context, a *OracleArgs) (*Nothing, error) {
		return &Nothing{}, d.oraclePut(a)
	})
	handleWire(reg, MsgOracleGetMany, func(ctx context.Context, a *OracleBatchArgs) (*BlocksReply, error) {
		blocks, err := d.p.OracleFor(a.HSMID).GetMany(a.Addrs)
		if err != nil {
			return nil, err
		}
		return &BlocksReply{Blocks: blocks}, nil
	})
	handleWire(reg, MsgOraclePutMany, func(ctx context.Context, a *OracleBatchArgs) (*Nothing, error) {
		return &Nothing{}, d.p.OracleFor(a.HSMID).PutMany(a.Addrs, a.Blocks)
	})
	handleWire(reg, MsgRegister, func(ctx context.Context, a *RegisterArgs) (*Nothing, error) {
		return &Nothing{}, d.register(a)
	})
	handleWire(reg, MsgStatus, func(ctx context.Context, _ *Nothing) (*FleetStatus, error) {
		st := d.status()
		return &st, nil
	})
	handleWire(reg, MsgInstallRosters, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return &Nothing{}, d.installRosters(ctx)
	})
	handleWire(reg, MsgFetchFleet, func(ctx context.Context, _ *Nothing) (*FleetMsg, error) {
		keys, err := d.fleetKeys()
		if err != nil {
			return nil, err
		}
		return &FleetMsg{Keys: keys}, nil
	})
	handleWire(reg, MsgStoreCiphertext, func(ctx context.Context, a *StoreCiphertextArgs) (*Nothing, error) {
		return &Nothing{}, d.p.StoreCiphertext(ctx, a.User, a.CT)
	})
	handleWire(reg, MsgFetchCiphertext, func(ctx context.Context, a *UserArg) (*BytesReply, error) {
		b, err := d.p.FetchCiphertext(ctx, a.User)
		if err != nil {
			return nil, err
		}
		return &BytesReply{B: b}, nil
	})
	handleWire(reg, MsgAttemptCount, func(ctx context.Context, a *UserArg) (*IntReply, error) {
		n, err := d.p.AttemptCount(ctx, a.User)
		if err != nil {
			return nil, err
		}
		return &IntReply{N: n}, nil
	})
	handleWire(reg, MsgReserveAttempt, func(ctx context.Context, a *UserArg) (*IntReply, error) {
		n, err := d.p.ReserveAttempt(ctx, a.User)
		if err != nil {
			return nil, err
		}
		return &IntReply{N: n}, nil
	})
	handleWire(reg, MsgLogRecoveryAttempt, func(ctx context.Context, a *LogAttemptArgs) (*Nothing, error) {
		return &Nothing{}, d.p.LogRecoveryAttempt(ctx, a.User, a.Attempt, a.Commitment)
	})
	handleWire(reg, MsgRunEpoch, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return &Nothing{}, d.p.RunEpoch(ctx)
	})
	handleWire(reg, MsgWaitForCommit, func(ctx context.Context, _ *Nothing) (*Nothing, error) {
		return &Nothing{}, d.p.WaitForCommit(ctx)
	})
	handleWire(reg, MsgFetchInclusionProof, func(ctx context.Context, a *InclusionArgs) (*TraceMsg, error) {
		tr, err := d.p.FetchInclusionProof(ctx, a.User, a.Attempt, a.Commitment)
		if err != nil {
			return nil, err
		}
		return &TraceMsg{Trace: *tr}, nil
	})
	handleWire(reg, MsgRelayRecover, func(ctx context.Context, req *protocol.RecoveryRequest) (*RecoverReplyMsg, error) {
		reply, err := d.p.RelayRecover(ctx, req)
		if err != nil {
			return nil, err
		}
		return &RecoverReplyMsg{Reply: *reply}, nil
	})
	handleWire(reg, MsgFetchEscrow, func(ctx context.Context, a *UserArg) (*EscrowMsg, error) {
		replies, err := d.p.FetchEscrowedReplies(ctx, a.User)
		if err != nil {
			return nil, err
		}
		out := &EscrowMsg{}
		for _, r := range replies {
			out.Replies = append(out.Replies, *r)
		}
		return out, nil
	})
	handleWire(reg, MsgClearEscrow, func(ctx context.Context, a *UserArg) (*Nothing, error) {
		return &Nothing{}, d.p.ClearEscrow(ctx, a.User)
	})
	handleWire(reg, MsgLogEntries, func(ctx context.Context, _ *Nothing) (*EntriesMsg, error) {
		return &EntriesMsg{Entries: d.p.LogEntries()}, nil
	})
	handleWire(reg, MsgLogDigest, func(ctx context.Context, _ *Nothing) (*DigestMsg, error) {
		return &DigestMsg{Digest: d.p.LogDigest()}, nil
	})
	return reg
}

// --- v1 compat shim (legacy net/rpc surface) ---

// ProviderService is the legacy (wire v1) net/rpc surface of the provider
// daemon, kept so pre-v2 clients still parse: same method names and
// message shapes as before the protocol was versioned. Handlers run under
// context.Background() — v1 has no cancellation on the wire.
type ProviderService struct {
	d *ProviderDaemon
}

// Service returns the legacy net/rpc receiver.
func (d *ProviderDaemon) Service() *ProviderService { return &ProviderService{d} }

// Config hands the fleet configuration to HSM daemons.
func (s *ProviderService) Config(_ Nothing, out *FleetConfig) error {
	*out = s.d.cfg
	return nil
}

// OracleGet serves an HSM's outsourced block read.
func (s *ProviderService) OracleGet(args OracleArgs, out *[]byte) error {
	b, err := s.d.oracleGet(&args)
	if err != nil {
		return err
	}
	*out = b
	return nil
}

// OraclePut serves an HSM's outsourced block write.
func (s *ProviderService) OraclePut(args OracleArgs, _ *Nothing) error {
	return s.d.oraclePut(&args)
}

// Register records a provisioned HSM daemon and connects back to it.
func (s *ProviderService) Register(args RegisterArgs, _ *Nothing) error {
	return s.d.register(&args)
}

// Status reports registration progress.
func (s *ProviderService) Status(_ Nothing, out *FleetStatus) error {
	*out = s.d.status()
	return nil
}

// InstallRosters pushes the complete signing roster to every registered HSM
// once the fleet is full.
func (s *ProviderService) InstallRosters(_ Nothing, _ *Nothing) error {
	return s.d.installRosters(context.Background())
}

// FetchFleet returns all HSM BFE public keys in fleet order. Clients should
// verify the digest out of band (§2).
func (s *ProviderService) FetchFleet(_ Nothing, out *[][]byte) error {
	keys, err := s.d.fleetKeys()
	if err != nil {
		return err
	}
	*out = keys
	return nil
}

// StoreCiphertext uploads a backup.
func (s *ProviderService) StoreCiphertext(args StoreCiphertextArgs, _ *Nothing) error {
	return s.d.p.StoreCiphertext(context.Background(), args.User, args.CT)
}

// FetchCiphertext downloads the latest backup.
func (s *ProviderService) FetchCiphertext(user string, out *[]byte) error {
	b, err := s.d.p.FetchCiphertext(context.Background(), user)
	if err != nil {
		return err
	}
	*out = b
	return nil
}

// AttemptCount returns the next free attempt number.
func (s *ProviderService) AttemptCount(user string, out *int) error {
	n, err := s.d.p.AttemptCount(context.Background(), user)
	if err != nil {
		return err
	}
	*out = n
	return nil
}

// ReserveAttempt atomically allocates the next attempt number for a user.
func (s *ProviderService) ReserveAttempt(user string, out *int) error {
	n, err := s.d.p.ReserveAttempt(context.Background(), user)
	if err != nil {
		return err
	}
	*out = n
	return nil
}

// LogRecoveryAttempt queues a recovery attempt for the next epoch.
func (s *ProviderService) LogRecoveryAttempt(args LogAttemptArgs, _ *Nothing) error {
	return s.d.p.LogRecoveryAttempt(context.Background(), args.User, args.Attempt, args.Commitment)
}

// RunEpoch forces one log-update epoch across the fleet.
func (s *ProviderService) RunEpoch(_ Nothing, _ *Nothing) error {
	return s.d.p.RunEpoch(context.Background())
}

// WaitForCommit blocks until the caller's pending log insertions commit
// through the epoch scheduler. net/rpc serves each call on its own
// goroutine, so concurrent clients share one batched epoch here exactly as
// they do in process.
func (s *ProviderService) WaitForCommit(_ Nothing, _ *Nothing) error {
	return s.d.p.WaitForCommit(context.Background())
}

// FetchInclusionProof serves a log-inclusion proof.
func (s *ProviderService) FetchInclusionProof(args InclusionArgs, out *TraceMsg) error {
	tr, err := s.d.p.FetchInclusionProof(context.Background(), args.User, args.Attempt, args.Commitment)
	if err != nil {
		return err
	}
	out.Trace = *tr
	return nil
}

// RelayRecover forwards a recovery request to its target HSM.
func (s *ProviderService) RelayRecover(req protocol.RecoveryRequest, out *RecoverReplyMsg) error {
	reply, err := s.d.p.RelayRecover(context.Background(), &req)
	if err != nil {
		return err
	}
	out.Reply = *reply
	return nil
}

// FetchEscrowedReplies returns the escrowed replies for a user.
func (s *ProviderService) FetchEscrowedReplies(user string, out *[]protocol.RecoveryReply) error {
	replies, err := s.d.p.FetchEscrowedReplies(context.Background(), user)
	if err != nil {
		return err
	}
	for _, r := range replies {
		*out = append(*out, *r)
	}
	return nil
}

// ClearEscrow drops a user's escrow.
func (s *ProviderService) ClearEscrow(user string, _ *Nothing) error {
	return s.d.p.ClearEscrow(context.Background(), user)
}

// LogEntries exposes the committed log for external auditors.
func (s *ProviderService) LogEntries(_ Nothing, out *[]logtree.Entry) error {
	*out = s.d.p.LogEntries()
	return nil
}

// LogDigest returns the provider's committed log digest.
func (s *ProviderService) LogDigest(_ Nothing, out *logtree.Digest) error {
	*out = s.d.p.LogDigest()
	return nil
}

// --- client-side proxy (wire v2) ---

// RemoteProvider implements the role-scoped client.Provider interface over
// the v2 wire protocol: every call carries its context, so client-side
// deadlines cancel the matching server-side handler.
type RemoteProvider struct {
	c *Conn
}

var _ client.Provider = (*RemoteProvider)(nil)

// DialProvider connects a client to a provider daemon (wire v2).
func DialProvider(addr string) (*RemoteProvider, error) {
	c, err := DialWire(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteProvider{c: c}, nil
}

// Fleet downloads and parses the fleet's BFE public keys.
func (r *RemoteProvider) Fleet(ctx context.Context) (*bfe.Fleet, error) {
	var raw FleetMsg
	if err := r.c.Call(ctx, MsgFetchFleet, Nothing{}, &raw); err != nil {
		return nil, err
	}
	keys := make([]*bfe.PublicKey, len(raw.Keys))
	for i, b := range raw.Keys {
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
	var cfg FleetConfig
	err := r.c.Call(ctx, MsgProviderConfig, Nothing{}, &cfg)
	return cfg, err
}

// StoreCiphertext implements client.BackupStore.
func (r *RemoteProvider) StoreCiphertext(ctx context.Context, user string, ct []byte) error {
	return r.c.Call(ctx, MsgStoreCiphertext, StoreCiphertextArgs{User: user, CT: ct}, nil)
}

// FetchCiphertext implements client.BackupStore.
func (r *RemoteProvider) FetchCiphertext(ctx context.Context, user string) ([]byte, error) {
	var out BytesReply
	if err := r.c.Call(ctx, MsgFetchCiphertext, UserArg{User: user}, &out); err != nil {
		return nil, err
	}
	return out.B, nil
}

// AttemptCount implements client.LogService.
func (r *RemoteProvider) AttemptCount(ctx context.Context, user string) (int, error) {
	var out IntReply
	if err := r.c.Call(ctx, MsgAttemptCount, UserArg{User: user}, &out); err != nil {
		return 0, err
	}
	return out.N, nil
}

// ReserveAttempt implements client.LogService. A reservation mutates state
// the HSM guess limit charges against, so RPC failures surface instead of
// being mistaken for index 0.
func (r *RemoteProvider) ReserveAttempt(ctx context.Context, user string) (int, error) {
	var out IntReply
	if err := r.c.Call(ctx, MsgReserveAttempt, UserArg{User: user}, &out); err != nil {
		return 0, err
	}
	return out.N, nil
}

// LogRecoveryAttempt implements client.LogService.
func (r *RemoteProvider) LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error {
	return r.c.Call(ctx, MsgLogRecoveryAttempt,
		LogAttemptArgs{User: user, Attempt: attempt, Commitment: commitment}, nil)
}

// RunEpoch forces an epoch over everything pending (administrative path;
// clients use WaitForCommit).
func (r *RemoteProvider) RunEpoch(ctx context.Context) error {
	return r.c.Call(ctx, MsgRunEpoch, Nothing{}, nil)
}

// WaitForCommit implements client.LogService. Cancelling ctx sends a
// cancel frame: the daemon unsubscribes the server-side waiter from its
// epoch round, so an abandoned wait leaks nothing on either end.
func (r *RemoteProvider) WaitForCommit(ctx context.Context) error {
	return r.c.Call(ctx, MsgWaitForCommit, Nothing{}, nil)
}

// FetchInclusionProof implements client.LogService.
func (r *RemoteProvider) FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error) {
	var out TraceMsg
	if err := r.c.Call(ctx, MsgFetchInclusionProof,
		InclusionArgs{User: user, Attempt: attempt, Commitment: commitment}, &out); err != nil {
		return nil, err
	}
	return &out.Trace, nil
}

// RelayRecover implements client.RecoveryService. The context rides the
// wire: cancelling aborts the daemon-side relay and its in-flight HSM
// exchange.
func (r *RemoteProvider) RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	var out RecoverReplyMsg
	if err := r.c.Call(ctx, MsgRelayRecover, req, &out); err != nil {
		return nil, err
	}
	return &out.Reply, nil
}

// FetchEscrowedReplies implements client.RecoveryService.
func (r *RemoteProvider) FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error) {
	var out EscrowMsg
	if err := r.c.Call(ctx, MsgFetchEscrow, UserArg{User: user}, &out); err != nil {
		return nil, err
	}
	replies := make([]*protocol.RecoveryReply, len(out.Replies))
	for i := range out.Replies {
		replies[i] = &out.Replies[i]
	}
	return replies, nil
}

// ClearEscrow implements client.RecoveryService.
func (r *RemoteProvider) ClearEscrow(ctx context.Context, user string) error {
	return r.c.Call(ctx, MsgClearEscrow, UserArg{User: user}, nil)
}

// LogEntries fetches the public log (external auditor path).
func (r *RemoteProvider) LogEntries(ctx context.Context) ([]logtree.Entry, error) {
	var out EntriesMsg
	err := r.c.Call(ctx, MsgLogEntries, Nothing{}, &out)
	return out.Entries, err
}

// LogDigest fetches the provider's committed digest.
func (r *RemoteProvider) LogDigest(ctx context.Context) (logtree.Digest, error) {
	var out DigestMsg
	err := r.c.Call(ctx, MsgLogDigest, Nothing{}, &out)
	return out.Digest, err
}

// Status fetches fleet registration progress.
func (r *RemoteProvider) Status(ctx context.Context) (FleetStatus, error) {
	var st FleetStatus
	err := r.c.Call(ctx, MsgStatus, Nothing{}, &st)
	return st, err
}

// InstallRosters asks the provider to push the signing roster fleet-wide.
func (r *RemoteProvider) InstallRosters(ctx context.Context) error {
	return r.c.Call(ctx, MsgInstallRosters, Nothing{}, nil)
}

// RegisterHSM announces a provisioned HSM daemon (used by cmd/hsmd).
func (r *RemoteProvider) RegisterHSM(ctx context.Context, args RegisterArgs) error {
	return r.c.Call(ctx, MsgRegister, args, nil)
}

// Close tears down the connection.
func (r *RemoteProvider) Close() error { return r.c.Close() }
