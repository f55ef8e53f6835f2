package client

import (
	"context"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"safetypin/internal/aead"
	"safetypin/internal/ecgroup"
	"safetypin/internal/elgamal"
	"safetypin/internal/lhe"
	"safetypin/internal/logtree"
	"safetypin/internal/protocol"
	"safetypin/internal/shamir"
)

// BackupStore is the ciphertext-storage role of the service provider: the
// only part of the API a device needs at backup time (no HSM ever runs).
type BackupStore interface {
	StoreCiphertext(ctx context.Context, user string, ct []byte) error
	FetchCiphertext(ctx context.Context, user string) ([]byte, error)
}

// LogService is the distributed-log role of the service provider (§6).
//
// Recovery attempts are allocated with ReserveAttempt (atomic, so two
// concurrent recoveries of one user never collide on an attempt index) and
// committed to the log by the provider's epoch scheduler: the client
// appends with LogRecoveryAttempt and blocks on WaitForCommit, sharing an
// epoch with every other recovery in flight (the paper's ~10-minute
// batching, §6.2). WaitForCommit honours cancellation: a caller that gives
// up on a wedged epoch is unsubscribed and leaks nothing.
type LogService interface {
	AttemptCount(ctx context.Context, user string) (int, error)
	ReserveAttempt(ctx context.Context, user string) (int, error)
	LogRecoveryAttempt(ctx context.Context, user string, attempt int, commitment []byte) error
	WaitForCommit(ctx context.Context) error
	FetchInclusionProof(ctx context.Context, user string, attempt int, commitment []byte) (*logtree.Trace, error)
}

// RecoveryService is the recovery-relay role of the service provider: it
// forwards share requests to HSMs and escrows the sealed replies keyed by
// (user, attempt) for crash recovery (§8). Cancelling the context on
// RelayRecover aborts the in-flight HSM exchange end to end.
type RecoveryService interface {
	RelayRecover(ctx context.Context, req *protocol.RecoveryRequest) (*protocol.RecoveryReply, error)
	FetchEscrowedReplies(ctx context.Context, user string) ([]*protocol.RecoveryReply, error)
	ClearEscrow(ctx context.Context, user string) error
}

// Provider is the client's complete view of the service provider. The
// in-process provider and the TCP transport both satisfy it. Code that
// only stores backups, or only drives recoveries, should accept the
// narrower role interface instead.
type Provider interface {
	BackupStore
	LogService
	RecoveryService
}

// Client is one user's device.
type Client struct {
	user     string
	pin      string //spin:secret
	params   lhe.Params
	fleet    lhe.Encryptor
	provider Provider
	rng      io.Reader
	salt     []byte
}

// New creates a client with a fresh random salt. fleet must hold the
// authentic public keys of all N HSMs (the trust anchor of §2).
//
//spin:secret pin
func New(user, pin string, params lhe.Params, fleet lhe.Encryptor, p Provider) (*Client, error) {
	c := &Client{user: user, pin: pin, params: params, fleet: fleet, provider: p, rng: rand.Reader}
	if err := c.refreshSalt(); err != nil {
		return nil, err
	}
	return c, nil
}

func (c *Client) refreshSalt() error {
	salt := make([]byte, lhe.SaltSize)
	if _, err := io.ReadFull(c.rng, salt); err != nil {
		return fmt.Errorf("client: sampling salt: %w", err)
	}
	c.salt = salt
	return nil
}

// User returns the client's username.
func (c *Client) User() string { return c.user }

// Salt returns the client's current backup salt (public).
func (c *Client) Salt() []byte { return append([]byte(nil), c.salt...) }

// Backup encrypts msg under the client's PIN and uploads the recovery
// ciphertext. Successive backups reuse the same salt so they share one
// cluster and die together on puncture (§8).
func (c *Client) Backup(ctx context.Context, msg []byte) error {
	ct, err := c.params.EncryptWithSalt(c.fleet, c.user, c.pin, c.salt, msg, c.rng)
	if err != nil {
		return err
	}
	return c.provider.StoreCiphertext(ctx, c.user, ct.Bytes())
}

// Session carries the state of one in-flight recovery so that tests (and
// the crash-recovery flow) can exercise partial executions. All fields
// except the share set are immutable after Begin; shares/spares/held are
// guarded by mu so RequestShares can fan out to the cluster concurrently.
type Session struct {
	client   *Client
	ct       *lhe.Ciphertext
	ctHash   protocol.CtHash // of the stored blob ct was parsed from
	cluster  []int
	attempt  int
	nonce    []byte
	trace    *logtree.Trace
	ReplyKey ecgroup.KeyPair

	mu     sync.Mutex
	shares []lhe.DecryptedShare      // replies opened so far, at most a threshold of them
	spares []*protocol.RecoveryReply // replies past the threshold, still sealed
	held   map[int]bool              // cluster positions answered, opened or spare
}

// ErrTooFewShares is returned when fewer than t HSMs produced usable
// shares.
var ErrTooFewShares = errors.New("client: too few shares recovered")

// Begin runs steps Ë–Î of Figure 3: fetch the ciphertext, derive the
// cluster from the PIN, log the recovery attempt, and obtain the inclusion
// proof. pin overrides the client's stored PIN when non-empty (modelling a
// user typing a guess on a fresh device). Cancelling ctx aborts whichever
// provider exchange is in flight — including the epoch wait, from which
// the client is unsubscribed cleanly.
//
//spin:secret pin
func (c *Client) Begin(ctx context.Context, pin string) (*Session, error) {
	//spinlint:ignore ctsecret empty-string sentinel check: compares length only, not PIN content
	if pin == "" {
		pin = c.pin
	}
	blob, err := c.provider.FetchCiphertext(ctx, c.user)
	if err != nil {
		return nil, err
	}
	ct, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		return nil, err
	}
	cluster, err := c.params.Select(ct.Salt, pin)
	if err != nil {
		return nil, err
	}
	replyKP, err := ecgroup.GenerateKeyPair(c.rng)
	if err != nil {
		return nil, err
	}
	nonce := make([]byte, protocol.CommitNonceSize)
	if _, err := io.ReadFull(c.rng, nonce); err != nil {
		return nil, err
	}
	attempt, err := c.provider.ReserveAttempt(ctx, c.user)
	if err != nil {
		return nil, fmt.Errorf("client: reserving attempt: %w", err)
	}
	ctHash := protocol.HashCiphertext(blob)
	commit := protocol.Commitment(c.user, ct.Salt, ctHash, cluster, nonce)
	if err := c.provider.LogRecoveryAttempt(ctx, c.user, attempt, commit); err != nil {
		return nil, err
	}
	// The provider batches insertions from all concurrent recoveries and
	// runs the log-update protocol on its epoch schedule (every ~10
	// minutes in the paper); we block until the epoch holding our
	// insertion commits.
	if err := c.provider.WaitForCommit(ctx); err != nil {
		return nil, fmt.Errorf("client: log epoch failed: %w", err)
	}
	trace, err := c.provider.FetchInclusionProof(ctx, c.user, attempt, commit)
	if err != nil {
		return nil, err
	}
	return &Session{
		client:   c,
		ct:       ct,
		ctHash:   ctHash,
		cluster:  cluster,
		attempt:  attempt,
		nonce:    nonce,
		trace:    trace,
		ReplyKey: replyKP,
		held:     make(map[int]bool),
	}, nil
}

// Cluster returns the HSM indices this session will contact.
func (s *Session) Cluster() []int { return append([]int(nil), s.cluster...) }

// Attempt returns the log attempt index this session reserved.
func (s *Session) Attempt() int { return s.attempt }

// BuildRequest assembles the recovery request for cluster position j;
// exposed so transports and fault-injection tests can manipulate requests
// before relaying them.
func (s *Session) BuildRequest(j int) *protocol.RecoveryRequest {
	return &protocol.RecoveryRequest{
		User:        s.client.user,
		Salt:        s.ct.Salt,
		Attempt:     s.attempt,
		SharePos:    j,
		Cluster:     s.cluster,
		CommitNonce: s.nonce,
		CtHash:      s.ctHash,
		ShareCt:     s.ct.Shares[j],
		LogTrace:    s.trace,
		ReplyPK:     s.ReplyKey.PK,
	}
}

// RequestShare contacts the cluster member at position j (step Ï) and
// takes its reply.
func (s *Session) RequestShare(ctx context.Context, j int) error {
	if j < 0 || j >= len(s.cluster) {
		return fmt.Errorf("client: share position %d out of range", j)
	}
	reply, err := s.client.provider.RelayRecover(ctx, s.BuildRequest(j))
	if err != nil {
		return err
	}
	return s.take(j, reply)
}

// take records the reply for cluster position pos. Reconstruction reads a
// threshold of shares, so only that many replies are opened: the rest stay
// sealed as spares, for Finish to open if the opened shares do not
// reconstruct. Positions are deduplicated (a resumed session may race its
// escrowed copy against a live fetch); a reply that does not open is refused.
func (s *Session) take(pos int, reply *protocol.RecoveryReply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.held[pos] {
		return nil
	}
	if len(s.shares) >= s.client.params.Threshold() {
		s.held[pos] = true
		s.spares = append(s.spares, reply)
		return nil
	}
	ds, err := s.client.decryptReply(s.ReplyKey, s.ct.Salt, reply)
	if err != nil {
		return err
	}
	s.held[pos] = true
	s.shares = append(s.shares, ds)
	return nil
}

// ShareError records the failure of one cluster position during a share
// fan-out.
type ShareError struct {
	Pos int
	Err error
}

func (e ShareError) Error() string {
	return fmt.Sprintf("client: share position %d: %v", e.Pos, e.Err)
}

// RequestShares contacts every not-yet-collected cluster member
// concurrently (step Ï at datacenter speed: parallel HSM round trips
// instead of sequential ones) and returns once the session holds at least
// t shares — the early-exit path for latency-critical recoveries. The
// moment the threshold is met the remaining laggard requests are
// cancelled: their contexts propagate through the provider to the
// in-flight HSM exchanges, so nothing keeps running (or punctures keys)
// for a recovery that is already decided. Per-position failures are
// collected and returned; they are not fatal as long as t shares come
// back (Property 3, fault tolerance).
func (s *Session) RequestShares(ctx context.Context) []ShareError {
	return s.fanOut(ctx, true)
}

// RequestAllShares contacts every not-yet-collected cluster member
// concurrently and waits for all of them to answer, so every reachable HSM
// has punctured by the time it returns (the paper's forward-secrecy
// guarantee is immediate, not eventual). Recover uses this.
func (s *Session) RequestAllShares(ctx context.Context) []ShareError {
	return s.fanOut(ctx, false)
}

// fanOut runs the parallel share collection; earlyExit stops waiting — and
// cancels the laggards — once the threshold is met.
func (s *Session) fanOut(ctx context.Context, earlyExit bool) []ShareError {
	need := s.client.params.Threshold()
	if earlyExit && s.SharesHeld() >= need {
		return nil // e.g. a resumed session whose escrow already met t
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // early exit or return: abort every in-flight laggard
	type result struct {
		pos   int
		reply *protocol.RecoveryReply
		err   error
	}
	s.mu.Lock()
	todo := make([]int, 0, len(s.cluster))
	for j := range s.cluster {
		if !s.held[j] {
			todo = append(todo, j)
		}
	}
	s.mu.Unlock()
	results := make(chan result, len(todo))
	for _, j := range todo {
		go func(j int) {
			reply, err := s.client.provider.RelayRecover(ctx, s.BuildRequest(j))
			results <- result{pos: j, reply: reply, err: err}
		}(j)
	}
	var errs []ShareError
	for range todo {
		r := <-results
		if r.err == nil {
			r.err = s.take(r.pos, r.reply)
		}
		if r.err != nil {
			errs = append(errs, ShareError{Pos: r.pos, Err: r.err})
		}
		// Checked after failures too: a session that already holds t
		// (escrow replay, earlier partial run) must not wait out — or
		// keep burning punctures at — the remaining laggards.
		if earlyExit && s.SharesHeld() >= need {
			break // deferred cancel() reaps the laggards
		}
	}
	return errs
}

// decryptReply opens one escrowable HSM reply with the ephemeral key.
func (c *Client) decryptReply(kp ecgroup.KeyPair, salt []byte, reply *protocol.RecoveryReply) (lhe.DecryptedShare, error) {
	box, err := elgamal.CiphertextFromBytes(reply.Box)
	if err != nil {
		return lhe.DecryptedShare{}, err
	}
	pt, err := elgamal.Decrypt(kp.SK, box, protocol.ReplyAD(c.user, salt, reply.SharePos))
	if err != nil {
		return lhe.DecryptedShare{}, fmt.Errorf("client: opening HSM reply: %w", err)
	}
	share, err := shamir.ShareFromBytes(pt)
	if err != nil {
		return lhe.DecryptedShare{}, err
	}
	return lhe.DecryptedShare{Pos: reply.SharePos, Share: share}, nil
}

// SharesHeld returns how many usable shares the session has collected:
// the replies it has opened, not its sealed spares.
func (s *Session) SharesHeld() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.shares)
}

// Finish reconstructs the backed-up message from the collected shares
// (step Ð + Reconstruct), clears the escrow, and rotates the client's salt
// so future backups select a fresh cluster (§8). Escrow cleanup is
// best-effort: once reconstruction succeeds the plaintext is returned even
// if the ClearEscrow RPC fails — every HSM has already punctured, so
// failing the recovery over a cleanup error would lose the data forever
// (the provider's escrow bound evicts the leftovers on the next attempt).
func (s *Session) Finish(ctx context.Context) ([]byte, error) {
	s.mu.Lock()
	shares := append([]lhe.DecryptedShare(nil), s.shares...)
	spares := append([]*protocol.RecoveryReply(nil), s.spares...)
	s.mu.Unlock()
	if len(shares) < s.client.params.Threshold() {
		return nil, fmt.Errorf("%w: have %d, need %d",
			ErrTooFewShares, len(shares), s.client.params.Threshold())
	}
	msg, err := s.client.params.Reconstruct(s.client.user, s.ct, shares)
	if err != nil && len(spares) > 0 {
		// A share that opened but does not fit came from a faulty HSM. Now
		// the spares are needed: they go in front of the shares that failed.
		for _, r := range spares {
			if ds, derr := s.client.decryptReply(s.ReplyKey, s.ct.Salt, r); derr == nil {
				shares = append([]lhe.DecryptedShare{ds}, shares...)
			}
		}
		msg, err = s.client.params.Reconstruct(s.client.user, s.ct, shares)
	}
	if err != nil {
		return nil, err
	}
	// Rotate the salt before touching the escrow: if the rotation fails
	// the escrow is still intact, so the caller can always fall back to
	// CompleteFromEscrow — no failure ordering here can strand the data.
	if err := s.client.refreshSalt(); err != nil {
		return nil, err
	}
	_ = s.client.provider.ClearEscrow(ctx, s.client.user)
	return msg, nil
}

// Recover runs the complete recovery flow: Begin, contact the whole
// cluster in parallel, Finish. Individual HSM failures are tolerated as
// long as t shares come back (Property 3, fault tolerance). The context
// bounds the whole flow; use BeginRecovery for a resumable session.
//
//spin:secret pin
func (c *Client) Recover(ctx context.Context, pin string) ([]byte, error) {
	s, err := c.Begin(ctx, pin)
	if err != nil {
		return nil, err
	}
	errs := s.RequestAllShares(ctx)
	msg, err := s.Finish(ctx)
	if err != nil {
		if len(errs) > 0 {
			return nil, fmt.Errorf("%w (last HSM error: %v)", err, errs[len(errs)-1].Err)
		}
		return nil, err
	}
	return msg, nil
}

// CompleteFromEscrow finishes an interrupted recovery on a replacement
// device (§8): given the recovered ephemeral keypair (itself restored via a
// nested SafetyPin backup), decrypt the provider-escrowed HSM replies and
// reconstruct. The original ciphertext is already punctured, so this is the
// only remaining path to the data. ResumeRecovery is the structured
// version of this flow for devices that kept a session token.
func (c *Client) CompleteFromEscrow(ctx context.Context, replyKP ecgroup.KeyPair) ([]byte, error) {
	blob, err := c.provider.FetchCiphertext(ctx, c.user)
	if err != nil {
		return nil, err
	}
	ct, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		return nil, err
	}
	replies, err := c.provider.FetchEscrowedReplies(ctx, c.user)
	if err != nil {
		return nil, err
	}
	if len(replies) == 0 {
		return nil, errors.New("client: no escrowed replies")
	}
	var shares []lhe.DecryptedShare
	for _, r := range replies {
		if len(shares) == c.params.Threshold() {
			break // reconstruction reads no more than this
		}
		ds, err := c.decryptReply(replyKP, ct.Salt, r)
		if err != nil {
			continue
		}
		shares = append(shares, ds)
	}
	if len(shares) < c.params.Threshold() {
		return nil, fmt.Errorf("%w: escrow yielded %d of %d",
			ErrTooFewShares, len(shares), c.params.Threshold())
	}
	msg, err := c.params.Reconstruct(c.user, ct, shares)
	if err != nil {
		return nil, err
	}
	// Best-effort, as in Finish: the data outranks escrow hygiene.
	_ = c.provider.ClearEscrow(ctx, c.user)
	return msg, nil
}

// --- incremental backups (§8) ---

// incrUser namespaces a user's incremental blobs at the provider.
func (c *Client) incrUser() string { return c.user + "/incremental" }

// EnableIncrementalBackups creates a master AES key, protects it with a
// full SafetyPin backup, and returns it for local use.
func (c *Client) EnableIncrementalBackups(ctx context.Context) ([]byte, error) {
	key, err := aead.NewKey(c.rng)
	if err != nil {
		return nil, err
	}
	if err := c.Backup(ctx, key); err != nil {
		return nil, err
	}
	return key, nil
}

// IncrementalBackup encrypts one incremental image under the master key and
// uploads it. No HSM interaction occurs.
func (c *Client) IncrementalBackup(ctx context.Context, masterKey, data []byte) error {
	blob, err := aead.Seal(masterKey, data, []byte("safetypin/incremental/v1|"+c.user))
	if err != nil {
		return err
	}
	return c.provider.StoreCiphertext(ctx, c.incrUser(), blob)
}

// FetchIncremental decrypts the latest incremental blob with the (possibly
// just-recovered) master key.
func (c *Client) FetchIncremental(ctx context.Context, masterKey []byte) ([]byte, error) {
	blob, err := c.provider.FetchCiphertext(ctx, c.incrUser())
	if err != nil {
		return nil, err
	}
	return aead.Open(masterKey, blob, []byte("safetypin/incremental/v1|"+c.user))
}
