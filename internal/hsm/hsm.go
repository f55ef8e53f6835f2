package hsm

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"safetypin/internal/aggsig"
	"safetypin/internal/bfe"
	"safetypin/internal/dlog"
	"safetypin/internal/elgamal"
	"safetypin/internal/lhe"
	"safetypin/internal/meter"
	"safetypin/internal/protocol"
	"safetypin/internal/securestore"
)

// Config fixes per-HSM parameters.
type Config struct {
	// BFE sizes the puncturable-encryption keys.
	BFE bfe.Params
	// Log is the distributed-log configuration (shared fleet-wide).
	Log dlog.Config
	// GuessLimit is the number of recovery attempts allowed per user
	// between log garbage collections (the paper discusses 1, or e.g. 5).
	GuessLimit int
}

func (c Config) withDefaults() Config {
	if c.GuessLimit < 1 {
		c.GuessLimit = 1
	}
	return c
}

// HSM is one simulated hardware security module.
//
// Locking is fine-grained so the three duties proceed concurrently under
// the provider's fan-out: log auditing synchronizes inside the dlog
// auditor, recovery share decryption serializes on keyMu (the puncturable
// key mutates its outsourced store on every puncture, and a real HSM is a
// serial device there anyway), and cheap state reads take stateMu.
type HSM struct {
	id  int
	cfg Config

	// keyMu serializes every use of the puncturable key: a decrypt and
	// its puncture must be atomic with respect to other recoveries, and
	// rotation swaps the key wholesale.
	keyMu  sync.Mutex
	bfeKey *bfe.PrivateKey //spin:guardedby keyMu

	// stateMu guards the cheap mutable state below.
	stateMu   sync.RWMutex
	bfePub    *bfe.PublicKey //spin:guardedby stateMu
	auditor   *dlog.Auditor  //spin:guardedby stateMu
	keyEpoch  int            //spin:guardedby stateMu
	punctures int64          //spin:guardedby stateMu

	signer aggsig.Signer
	oracle securestore.Oracle //spin:guardedby stateMu
	rng    io.Reader
	m      *meter.Meter
}

// New provisions an HSM with the signing key signer (fleet provisioning
// generates every HSM's key in one aggsig.KeyGenBatch): it generates its
// puncturable keypair, outsourcing the secret array to the provider-hosted
// oracle. The log auditor is attached later via InstallRoster, once all
// fleet public keys exist.
func New(id int, cfg Config, oracle securestore.Oracle, rng io.Reader, m *meter.Meter, signer aggsig.Signer) (*HSM, error) {
	if signer == nil {
		return nil, fmt.Errorf("hsm %d: no signing key", id)
	}
	cfg = cfg.withDefaults()
	if rng == nil {
		rng = rand.Reader
	}
	sk, pk, err := bfe.KeyGenBatch(cfg.BFE, oracle, rng, m)
	if err != nil {
		return nil, fmt.Errorf("hsm %d: generating puncturable key: %w", id, err)
	}
	return &HSM{
		id:     id,
		cfg:    cfg,
		bfeKey: sk,
		bfePub: pk,
		signer: signer,
		oracle: oracle,
		rng:    rng,
		m:      m,
	}, nil
}

// ID returns the HSM's fleet index.
func (h *HSM) ID() int { return h.id }

// BFEPublicKey returns the current puncturable-encryption public key.
func (h *HSM) BFEPublicKey() *bfe.PublicKey {
	h.stateMu.RLock()
	defer h.stateMu.RUnlock()
	return h.bfePub
}

// AggSigPublicKey returns the aggregate-signature public key.
func (h *HSM) AggSigPublicKey() aggsig.PublicKey { return h.signer.PublicKey() }

// Meter returns the HSM's operation meter (nil-safe).
func (h *HSM) Meter() *meter.Meter { return h.m }

// InstallRoster attaches the distributed-log auditor once the fleet roster
// is known. roster must hold every member's key; an in-process fleet shares one pre-warmed cache (see
// dlog.NewAuditor).
func (h *HSM) InstallRoster(roster *aggsig.RosterCache) error {
	a, err := dlog.NewAuditor(h.cfg.Log, h.id, roster, h.signer, h.m)
	if err != nil {
		return err
	}
	h.stateMu.Lock()
	h.auditor = a
	h.stateMu.Unlock()
	return nil
}

func (h *HSM) auditorOrErr() (*dlog.Auditor, error) {
	h.stateMu.RLock()
	defer h.stateMu.RUnlock()
	if h.auditor == nil {
		return nil, fmt.Errorf("hsm %d: roster not installed", h.id)
	}
	return h.auditor, nil
}

// --- distributed-log participant interface ---
//
// The context on each exchange models the transport link to the HSM: the
// state machine itself is sequential, but a cancelled context (provider
// deadline, client gone) makes the exchange fail fast instead of queueing
// more work at a device that nobody is waiting on.

// LogChooseChunks selects this HSM's audit assignment for an epoch.
func (h *HSM) LogChooseChunks(ctx context.Context, hdr dlog.EpochHeader) ([]int, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := h.auditorOrErr()
	if err != nil {
		return nil, err
	}
	return a.ChooseChunks(hdr)
}

// LogHandleAudit audits an epoch package and returns this HSM's signature.
func (h *HSM) LogHandleAudit(ctx context.Context, pkg *dlog.AuditPackage) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	a, err := h.auditorOrErr()
	if err != nil {
		return nil, err
	}
	return a.HandleAudit(pkg)
}

// LogHandleCommit verifies the aggregate signature and advances the digest.
func (h *HSM) LogHandleCommit(ctx context.Context, cm *dlog.CommitMessage) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	a, err := h.auditorOrErr()
	if err != nil {
		return err
	}
	return a.HandleCommit(cm)
}

// LogDigest returns the HSM's current accepted log digest.
func (h *HSM) LogDigest() ([32]byte, error) {
	a, err := h.auditorOrErr()
	if err != nil {
		return [32]byte{}, err
	}
	return a.Digest(), nil
}

// GarbageCollect resets the HSM's log digest within its bounded budget.
func (h *HSM) GarbageCollect() error {
	a, err := h.auditorOrErr()
	if err != nil {
		return err
	}
	return a.GarbageCollect()
}

// --- recovery ---

// ErrGuessLimit is returned when a request's attempt number exceeds the
// per-user budget.
var ErrGuessLimit = errors.New("hsm: recovery attempt exceeds guess limit")

// HandleRecover executes steps Ï–Ð of Figure 3 for this HSM:
//
//  1. validate the request and this HSM's membership in the opened cluster,
//  2. enforce the per-user guess limit,
//  3. recompute the commitment and verify its log inclusion against the
//     HSM's own digest,
//  4. decrypt the share, verify the embedded username and puncture the key
//     so this ciphertext is dead forever after — one pass of the key store,
//  5. seal the share to the client's ephemeral reply key.
//
// The context is checked before any state changes: a client that cancelled
// (it already holds a threshold of shares) is turned away before this HSM
// decrypts and punctures, so an abandoned request does not burn a share.
// Once the puncture begins the operation runs to completion — the key
// mutation is atomic with respect to cancellation.
func (h *HSM) HandleRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := req.Validate(); err != nil {
		return nil, err
	}
	a, err := h.auditorOrErr()
	if err != nil {
		return nil, err
	}
	if req.Cluster[req.SharePos] != h.id {
		return nil, fmt.Errorf("hsm %d: request names HSM %d at position %d",
			h.id, req.Cluster[req.SharePos], req.SharePos)
	}
	if req.Attempt >= h.cfg.GuessLimit {
		return nil, fmt.Errorf("%w: attempt %d, limit %d", ErrGuessLimit, req.Attempt, h.cfg.GuessLimit)
	}
	// Check the logged commitment: the client's recovery attempt — bound to
	// this exact ciphertext and cluster — must appear in the log the fleet
	// agreed on.
	commit := protocol.Commitment(req.User, req.Salt, req.CtHash, req.Cluster, req.CommitNonce)
	h.m.Add(meter.OpHMAC, 2)
	logID := protocol.LogID(req.User, req.Attempt)
	if !a.VerifyInclusion(logID, commit, req.LogTrace) {
		return nil, fmt.Errorf("hsm %d: recovery attempt not in log", h.id)
	}
	// Last cancellation point: past here the decrypt-and-puncture runs to
	// completion so the key store never ends up half-mutated.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// One key operation under keyMu: open the share, check the username
	// bound into it and, only if that passes, puncture — a single pass of
	// the outsourced key store, one read exchange and one write. A
	// concurrent recovery of the same ciphertext sees the live key or the
	// punctured key; a refused request or a failed write leaves the key as
	// it was. Forward secrecy: the puncture precedes the reply, so seizing
	// this HSM afterwards reveals nothing about the ciphertext.
	h.keyMu.Lock()
	ds, err := lhe.DecryptAndPunctureShare(h.bfeKey, req.User, req.Salt, req.SharePos, h.id, req.ShareCt)
	h.keyMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("hsm %d: %w", h.id, err)
	}
	h.stateMu.Lock()
	h.punctures++
	h.stateMu.Unlock()
	// Seal the reply to the client's per-recovery key; the provider
	// escrows a copy for crash recovery (§8).
	h.m.Add(meter.OpECMul, 2)
	box, err := elgamal.Encrypt(req.ReplyPK, ds.Share.Bytes(),
		protocol.ReplyAD(req.User, req.Salt, req.SharePos), h.rng)
	if err != nil {
		return nil, err
	}
	return &protocol.RecoveryReply{HSMIndex: h.id, SharePos: req.SharePos, Box: box.Bytes()}, nil
}

// --- key rotation ---

// NeedsRotation reports whether the puncturable key is half spent.
func (h *HSM) NeedsRotation() bool {
	h.keyMu.Lock()
	defer h.keyMu.Unlock()
	return h.bfeKey.NeedsRotation()
}

// RotateKey generates a fresh puncturable keypair on a fresh oracle,
// destroying the old secret. Returns the new public key for distribution to
// clients. This is the 75-hour operation of §9.1; the meter records its
// full cost. In-flight recoveries against the old key finish first (keyMu
// is held across the swap).
func (h *HSM) RotateKey(freshOracle securestore.Oracle) (*bfe.PublicKey, error) {
	sk, pk, err := bfe.KeyGen(h.cfg.BFE, freshOracle, h.rng, h.m)
	if err != nil {
		return nil, fmt.Errorf("hsm %d: rotating key: %w", h.id, err)
	}
	h.keyMu.Lock()
	h.bfeKey = sk
	h.keyMu.Unlock()
	h.stateMu.Lock()
	h.bfePub = pk
	h.oracle = freshOracle
	h.keyEpoch++
	h.stateMu.Unlock()
	return pk, nil
}

// SwapOracle reattaches the HSM's outsourced securestore to a different
// oracle holding the same encrypted blocks. This is the recovery path
// after a provider restart: the provider rebuilds its hosted block
// stores from the journal and live HSMs repoint at the rebuilt copies.
// The root key never left the HSM, so a provider that serves back
// tampered blocks is still caught by the AEAD integrity check. In-flight
// recoveries drain first (keyMu is held across the swap).
func (h *HSM) SwapOracle(o securestore.Oracle) {
	h.keyMu.Lock()
	h.bfeKey.SwapOracle(o)
	h.keyMu.Unlock()
	h.stateMu.Lock()
	h.oracle = o
	h.stateMu.Unlock()
}

// KeyEpoch returns how many times this HSM has rotated its key.
func (h *HSM) KeyEpoch() int {
	h.stateMu.RLock()
	defer h.stateMu.RUnlock()
	return h.keyEpoch
}

// Punctures returns the number of recovery shares served (and punctured).
func (h *HSM) Punctures() int64 {
	h.stateMu.RLock()
	defer h.stateMu.RUnlock()
	return h.punctures
}

// Decrypter exposes the HSM's share decrypter for white-box tests only; the
// production path goes through HandleRecover.
func (h *HSM) Decrypter() lhe.ShareDecrypter {
	h.keyMu.Lock()
	defer h.keyMu.Unlock()
	return h.bfeKey
}
