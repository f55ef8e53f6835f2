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

// call runs one oracle exchange, redialing once if the connection has
// died (provider restart). App-level errors pass through untouched.
func (o *RemoteOracle) call(ctx context.Context, msg byte, payload []byte) ([]byte, error) {
	o.mu.Lock()
	c := o.c
	o.mu.Unlock()
	out, err := c.Call(ctx, msg, payload)
	if err == nil || !errors.Is(err, ErrConnClosed) {
		return out, err
	}
	nc, derr := DialWire(o.addr)
	if derr != nil {
		return nil, err
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
	return nc.Call(ctx, msg, payload)
}

// GetMany implements securestore.Oracle. The provider is the adversary: a
// reply that does not hold one entry per requested address is refused here,
// before the store looks at any of it.
func (o *RemoteOracle) GetMany(addrs []uint64) ([][]byte, error) {
	blocks, err := invoke(context.Background(), o.call, opOracleGetMany, OracleBatchArgs{HSMID: o.hsmID, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	if len(blocks) != len(addrs) {
		return nil, fmt.Errorf("transport: oracle returned %d blocks for %d addresses", len(blocks), len(addrs))
	}
	return blocks, nil
}

// PutMany implements securestore.Oracle.
func (o *RemoteOracle) PutMany(addrs []uint64, blocks [][]byte) error {
	_, err := invoke(context.Background(), o.call, opOraclePutMany, OracleBatchArgs{HSMID: o.hsmID, Addrs: addrs, Blocks: blocks})
	return err
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
	cache, err := parseRoster(raw)
	if err != nil {
		return err
	}
	return d.H.InstallRoster(cache)
}

// parseRoster parses aggregate-signature keys in fleet order into a
// roster cache.
func parseRoster(raw [][]byte) (*aggsig.RosterCache, error) {
	keys := make([]aggsig.PublicKey, len(raw))
	for i, b := range raw {
		pk, err := aggsig.ParsePublicKey(b)
		if err != nil {
			return nil, fmt.Errorf("transport: roster key %d: %w", i, err)
		}
		keys[i] = pk
	}
	cache := aggsig.NewRosterCache(nil)
	cache.SetRoster(keys)
	return cache, nil
}

// WireRegistry builds the HSM daemon's dispatch table. The per-call
// context reaches the HSM state machine, so a provider that cancels (its
// own client vanished, or the epoch audit deadline passed) aborts the
// exchange before the device commits to irreversible work.
func (d *HSMDaemon) WireRegistry() *Registry {
	reg := NewRegistry()
	handle(reg, opHSMRecover, d.H.HandleRecover)
	handle(reg, opHSMInstallRoster, func(_ context.Context, roster [][]byte) (none, error) {
		return none{}, d.installRoster(roster)
	})
	handle(reg, opHSMChooseChunks, d.H.LogChooseChunks)
	handle(reg, opHSMHandleAudit, d.H.LogHandleAudit)
	handle(reg, opHSMHandleCommit, func(ctx context.Context, cm *dlog.CommitMessage) (none, error) {
		return none{}, d.H.LogHandleCommit(ctx, cm)
	})
	return reg
}

// Service returns nil.
//
// Deprecated: wire v3 has no net/rpc surface. Service stays only for the
// benchmark harness, which passes its result to Serve's ignored legacy
// argument, until that harness is next changed.
func (d *HSMDaemon) Service() any { return nil }

// --- provider-side proxy ---

// RemoteHSM implements provider.HSMHandle over the wire: the
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

// call runs one wire exchange. A connection-level failure (the HSM daemon
// restarted, the link dropped) is classified transient and the
// connection replaced; app-level errors — an HSM rejecting an audit —
// pass through untouched and are never retried.
func (r *RemoteHSM) call(ctx context.Context, msg byte, payload []byte) ([]byte, error) {
	r.mu.Lock()
	c := r.c
	r.mu.Unlock()
	out, err := c.Call(ctx, msg, payload)
	if err == nil || !errors.Is(err, ErrConnClosed) {
		return out, err
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
	return nil, provider.MarkTransient(err)
}

// LogChooseChunks implements provider.HSMHandle.
func (r *RemoteHSM) LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error) {
	return invoke(ctx, r.call, opHSMChooseChunks, hdr)
}

// LogHandleAudit implements provider.HSMHandle.
func (r *RemoteHSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	return invoke(ctx, r.call, opHSMHandleAudit, pkg)
}

// LogHandleCommit implements provider.HSMHandle.
func (r *RemoteHSM) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	_, err := invoke(ctx, r.call, opHSMHandleCommit, cm)
	return err
}

// HandleRecover implements provider.HSMHandle.
func (r *RemoteHSM) HandleRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	return invoke(ctx, r.call, opHSMRecover, req)
}

// InstallRoster pushes the fleet roster.
func (r *RemoteHSM) InstallRoster(ctx context.Context, roster [][]byte) error {
	_, err := invoke(ctx, r.call, opHSMInstallRoster, roster)
	return err
}
