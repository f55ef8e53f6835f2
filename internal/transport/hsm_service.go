package transport

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/dlog"
	"safetypin/internal/hsm"
	"safetypin/internal/protocol"
	"safetypin/internal/provider"
	"safetypin/internal/securestore"
)

// RemoteOracle lets an HSM daemon keep its outsourced key array at the
// provider, a batch of blocks per RPC — the paper's host-hosted storage.
// securestore.Oracle has no context parameter (block I/O is part of every
// HSM key operation, which must run to completion once started), so calls
// ride context.Background(). Like RemoteHSM on the provider side, a
// connection-level failure redials: the provider restarting from its
// journal must not strand every HSM's key array behind a dead socket.
type RemoteOracle struct {
	addr  string
	hsmID int
	mu    sync.Mutex
	c     *Conn
}

// DialOracle connects an HSM daemon's oracle to the provider.
func DialOracle(providerAddr string, hsmID int) (*RemoteOracle, error) {
	c, err := DialWire(providerAddr)
	if err != nil {
		return nil, err
	}
	return &RemoteOracle{addr: providerAddr, hsmID: hsmID, c: c}, nil
}

// Close closes the oracle's connection.
func (o *RemoteOracle) Close() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.c.Close()
}

// call runs one oracle RPC, redialing once if the connection has died
// (provider restart). App-level errors pass through untouched.
func (o *RemoteOracle) call(msg byte, args OracleBatchArgs, reply any) error {
	o.mu.Lock()
	c := o.c
	o.mu.Unlock()
	err := c.Call(context.Background(), msg, args, reply)
	if err == nil || !errors.Is(err, ErrConnClosed) {
		return err
	}
	nc, derr := DialWire(o.addr)
	if derr != nil {
		return err
	}
	o.mu.Lock()
	if o.c == c {
		o.c = nc
	} else {
		// A concurrent caller already replaced the connection.
		nc.Close()
		nc = o.c
	}
	o.mu.Unlock()
	return nc.Call(context.Background(), msg, args, reply)
}

// GetMany implements securestore.Oracle. The provider is the adversary: a
// reply that does not hold one entry per requested address is refused here,
// before the store looks at any of it.
func (o *RemoteOracle) GetMany(addrs []uint64) ([][]byte, error) {
	var out BlocksReply
	if err := o.call(MsgOracleGetMany, OracleBatchArgs{HSMID: o.hsmID, Addrs: addrs}, &out); err != nil {
		return nil, err
	}
	if len(out.Blocks) != len(addrs) {
		return nil, fmt.Errorf("transport: oracle returned %d blocks for %d addresses", len(out.Blocks), len(addrs))
	}
	return out.Blocks, nil
}

// PutMany implements securestore.Oracle.
func (o *RemoteOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	return o.call(MsgOraclePutMany, OracleBatchArgs{HSMID: o.hsmID, Addrs: addrs, Blocks: blocks}, nil)
}

var _ securestore.Oracle = (*RemoteOracle)(nil)

// HSMDaemon wraps one HSM state machine for network service.
type HSMDaemon struct {
	H *hsm.HSM
}

// ProvisionHSM creates the HSM for a daemon: fetch the fleet config from
// the provider, generate keys (the secret array streams into the provider-
// hosted oracle over RPC), and return the daemon plus registration args.
// The config connection is closed on return; the oracle connection lives
// as long as the HSM.
func ProvisionHSM(providerAddr string, id int, listenAddr string) (*HSMDaemon, RegisterArgs, error) {
	ctx := context.Background()
	rp, err := DialProvider(providerAddr)
	if err != nil {
		return nil, RegisterArgs{}, err
	}
	defer rp.Close()
	cfg, err := rp.Config(ctx)
	if err != nil {
		return nil, RegisterArgs{}, err
	}
	// An HSM refuses to join a fleet whose log was signed with another
	// scheme or message hash.
	if err := checkScheme(cfg.SchemeName, cfg.HashModeName); err != nil {
		return nil, RegisterArgs{}, err
	}
	signer, err := aggsig.KeyGen(rand.Reader)
	if err != nil {
		return nil, RegisterArgs{}, fmt.Errorf("transport: hsm %d signing key: %w", id, err)
	}
	oracle, err := DialOracle(providerAddr, id)
	if err != nil {
		return nil, RegisterArgs{}, err
	}
	hcfg := hsm.Config{
		BFE: bfe.Params{M: cfg.BFEM, K: cfg.BFEK},
		Log: dlog.Config{
			NumChunks:     cfg.LogChunks,
			AuditsPerHSM:  cfg.AuditsPerHSM,
			MinSignerFrac: cfg.MinSignerFrac,
			Deterministic: cfg.Deterministic,
		},
		GuessLimit: cfg.GuessLimit,
	}
	h, err := hsm.New(id, hcfg, oracle, rand.Reader, nil, signer)
	if err != nil {
		oracle.Close()
		return nil, RegisterArgs{}, err
	}
	return &HSMDaemon{H: h}, RegisterArgs{
		ID:        id,
		Addr:      listenAddr,
		BFEPub:    h.BFEPublicKey().Bytes(),
		AggSigPub: h.AggSigPublicKey().Bytes(),
	}, nil
}

// installRoster parses the fleet roster into a roster cache of this
// daemon's own.
func (d *HSMDaemon) installRoster(raw [][]byte) error {
	keys := make([]aggsig.PublicKey, len(raw))
	for i, b := range raw {
		pk, err := aggsig.ParsePublicKey(b)
		if err != nil {
			return fmt.Errorf("transport: roster key %d: %w", i, err)
		}
		keys[i] = pk
	}
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(keys)
	return d.H.InstallRoster(cache)
}

// WireRegistry builds the HSM daemon's v2 dispatch table. The per-call
// context reaches the HSM state machine, so a provider that cancels (its
// own client vanished, or the epoch audit deadline passed) aborts the
// exchange before the device commits to irreversible work.
func (d *HSMDaemon) WireRegistry() *Registry {
	reg := NewRegistry()
	handleWire(reg, MsgHSMRecover, func(ctx context.Context, req *protocol.RecoveryRequest) (*RecoverReplyMsg, error) {
		reply, err := d.H.HandleRecover(ctx, req)
		if err != nil {
			return nil, err
		}
		return &RecoverReplyMsg{Reply: *reply}, nil
	})
	handleWire(reg, MsgHSMInstallRoster, func(ctx context.Context, a *RosterMsg) (*Nothing, error) {
		return &Nothing{}, d.installRoster(a.Roster)
	})
	handleWire(reg, MsgHSMChooseChunks, func(ctx context.Context, a *EpochHeaderMsg) (*ChunksMsg, error) {
		idx, err := d.H.LogChooseChunks(ctx, a.Hdr)
		if err != nil {
			return nil, err
		}
		return &ChunksMsg{Chunks: idx}, nil
	})
	handleWire(reg, MsgHSMHandleAudit, func(ctx context.Context, a *AuditPackageMsg) (*BytesReply, error) {
		sig, err := d.H.LogHandleAudit(ctx, &a.Pkg)
		if err != nil {
			return nil, err
		}
		return &BytesReply{B: sig}, nil
	})
	handleWire(reg, MsgHSMHandleCommit, func(ctx context.Context, a *CommitMsg) (*Nothing, error) {
		return &Nothing{}, d.H.LogHandleCommit(ctx, &a.CM)
	})
	return reg
}

// HSMService is the legacy (wire v1) net/rpc surface of an HSM daemon.
type HSMService struct {
	d *HSMDaemon
}

// Service returns the legacy net/rpc receiver.
func (d *HSMDaemon) Service() *HSMService { return &HSMService{d} }

// Recover serves the recovery protocol (Figure 3, steps Ï–Ð).
func (s *HSMService) Recover(req protocol.RecoveryRequest, out *RecoverReplyMsg) error {
	reply, err := s.d.H.HandleRecover(context.Background(), &req)
	if err != nil {
		return err
	}
	out.Reply = *reply
	return nil
}

// InstallRoster installs the fleet signing roster.
func (s *HSMService) InstallRoster(roster [][]byte, _ *Nothing) error {
	return s.d.installRoster(roster)
}

// LogChooseChunks returns this HSM's audit assignment.
func (s *HSMService) LogChooseChunks(hdr dlog.EpochHeader, out *[]int) error {
	idx, err := s.d.H.LogChooseChunks(context.Background(), hdr)
	if err != nil {
		return err
	}
	*out = idx
	return nil
}

// LogHandleAudit audits an epoch package.
func (s *HSMService) LogHandleAudit(pkg AuditPackageMsg, out *[]byte) error {
	sig, err := s.d.H.LogHandleAudit(context.Background(), &pkg.Pkg)
	if err != nil {
		return err
	}
	*out = sig
	return nil
}

// LogHandleCommit finalizes an epoch.
func (s *HSMService) LogHandleCommit(cm CommitMsg, _ *Nothing) error {
	return s.d.H.LogHandleCommit(context.Background(), &cm.CM)
}

// --- provider-side proxy (wire v2) ---

// RemoteHSM implements provider.HSMHandle over the v2 wire protocol: the
// provider's per-exchange contexts (audit timeouts, relayed client
// cancellations) cancel the matching daemon-side handler. Connection
// failures are marked transient (provider.MarkTransient) and the
// connection is redialed, so the provider's epoch-fan-out retry finds a
// live link on its next try instead of a permanently dead handle.
type RemoteHSM struct {
	id   int
	addr string
	mu   sync.Mutex
	c    *Conn
}

// NewRemoteHSM dials an HSM daemon.
func NewRemoteHSM(id int, addr string) (*RemoteHSM, error) {
	c, err := DialWire(addr)
	if err != nil {
		return nil, err
	}
	return &RemoteHSM{id: id, addr: addr, c: c}, nil
}

// ID implements provider.HSMHandle.
func (r *RemoteHSM) ID() int { return r.id }

// call runs one wire call. A connection-level failure (the HSM daemon
// restarted, the link dropped) is classified transient and the
// connection replaced; app-level errors — an HSM rejecting an audit —
// pass through untouched and are never retried.
func (r *RemoteHSM) call(ctx context.Context, msg byte, args, reply any) error {
	r.mu.Lock()
	c := r.c
	r.mu.Unlock()
	err := c.Call(ctx, msg, args, reply)
	if err == nil || !errors.Is(err, ErrConnClosed) {
		return err
	}
	if nc, derr := DialWire(r.addr); derr == nil {
		r.mu.Lock()
		if r.c == c {
			r.c = nc
		} else {
			// A concurrent caller already replaced the connection.
			defer nc.Close()
		}
		r.mu.Unlock()
	}
	return provider.MarkTransient(err)
}

// LogChooseChunks implements provider.HSMHandle.
func (r *RemoteHSM) LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error) {
	var out ChunksMsg
	err := r.call(ctx, MsgHSMChooseChunks, EpochHeaderMsg{Hdr: hdr}, &out)
	return out.Chunks, err
}

// LogHandleAudit implements provider.HSMHandle.
func (r *RemoteHSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	var out BytesReply
	err := r.call(ctx, MsgHSMHandleAudit, AuditPackageMsg{Pkg: *pkg}, &out)
	return out.B, err
}

// LogHandleCommit implements provider.HSMHandle.
func (r *RemoteHSM) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	return r.call(ctx, MsgHSMHandleCommit, CommitMsg{CM: *cm}, nil)
}

// HandleRecover implements provider.HSMHandle.
func (r *RemoteHSM) HandleRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	var out RecoverReplyMsg
	if err := r.call(ctx, MsgHSMRecover, req, &out); err != nil {
		return nil, err
	}
	return &out.Reply, nil
}

// InstallRoster pushes the fleet roster.
func (r *RemoteHSM) InstallRoster(ctx context.Context, roster [][]byte) error {
	return r.call(ctx, MsgHSMInstallRoster, RosterMsg{Roster: roster}, nil)
}
