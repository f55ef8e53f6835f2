package client

// session.go gives recovery the shape real deployments need (§8 "failure
// during recovery"): a long-lived, resumable session instead of one
// blocking call. BeginRecovery reserves the attempt and returns a
// RecoverySession; SessionToken serializes the session's identity — the
// (user, attempt) escrow key, the commitment opening, and the per-recovery
// ephemeral keypair — so a device that crashes mid-fan-out can hand the
// token to its replacement (typically via a nested SafetyPin backup) and
// ResumeRecovery there: escrowed replies are replayed, only the missing
// cluster positions are re-requested, and no second attempt is reserved —
// a crash costs zero additional guesses.

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"safetypin/internal/ecgroup"
	"safetypin/internal/lhe"
	"safetypin/internal/protocol"
)

// RecoverySession is a resumable recovery handle: a Session plus the
// serialization that lets a replacement device pick it up.
type RecoverySession struct {
	*Session
}

// BeginRecovery starts a resumable recovery: Begin (reserving an attempt
// and logging it) wrapped in a RecoverySession whose token survives a
// crash. pin overrides the stored PIN when non-empty.
func (c *Client) BeginRecovery(ctx context.Context, pin string) (*RecoverySession, error) {
	s, err := c.Begin(ctx, pin)
	if err != nil {
		return nil, err
	}
	return &RecoverySession{Session: s}, nil
}

// tokenVersion tags the session-token serialization so future layouts can
// coexist with stored tokens.
const tokenVersion byte = 1

// SessionToken serializes everything a replacement process needs to resume
// this recovery: user, attempt index, commitment nonce, ciphertext hash,
// cluster opening, and the ephemeral reply keypair. The token contains the
// recovery cluster (a salted function of the PIN) and the reply secret
// key, so it must be protected like the device's other secrets — the §8
// flow nests it inside another SafetyPin backup.
func (s *RecoverySession) SessionToken() ([]byte, error) {
	var b bytes.Buffer
	b.WriteByte(tokenVersion)
	writeBytes(&b, []byte(s.client.user))
	writeUvarint(&b, uint64(s.attempt))
	writeBytes(&b, s.nonce)
	b.Write(s.ctHash[:])
	writeUvarint(&b, uint64(len(s.cluster)))
	for _, idx := range s.cluster {
		writeUvarint(&b, uint64(idx))
	}
	writeBytes(&b, s.ReplyKey.SK.Bytes())
	writeBytes(&b, s.ReplyKey.PK.Bytes())
	return b.Bytes(), nil
}

// sessionToken is the parsed form.
type sessionToken struct {
	user    string
	attempt int
	nonce   []byte
	ctHash  protocol.CtHash
	cluster []int
	reply   ecgroup.KeyPair
}

func parseSessionToken(tok []byte) (*sessionToken, error) {
	r := bytes.NewReader(tok)
	v, err := r.ReadByte()
	if err != nil {
		return nil, errors.New("client: empty session token")
	}
	if v != tokenVersion {
		return nil, fmt.Errorf("client: unknown session token version %d", v)
	}
	user, err := readBytes(r)
	if err != nil {
		return nil, fmt.Errorf("client: session token user: %w", err)
	}
	attempt, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, fmt.Errorf("client: session token attempt: %w", err)
	}
	nonce, err := readBytes(r)
	if err != nil || len(nonce) != protocol.CommitNonceSize {
		return nil, errors.New("client: session token nonce malformed")
	}
	var ctHash protocol.CtHash
	if _, err := io.ReadFull(r, ctHash[:]); err != nil {
		return nil, errors.New("client: session token ciphertext hash malformed")
	}
	n, err := binary.ReadUvarint(r)
	if err != nil || n > 1<<16 {
		return nil, errors.New("client: session token cluster malformed")
	}
	cluster := make([]int, n)
	for i := range cluster {
		idx, err := binary.ReadUvarint(r)
		if err != nil {
			return nil, errors.New("client: session token cluster malformed")
		}
		cluster[i] = int(idx)
	}
	skBytes, err := readBytes(r)
	if err != nil {
		return nil, errors.New("client: session token reply key malformed")
	}
	sk, err := ecgroup.ScalarFromBytes(skBytes)
	if err != nil {
		return nil, fmt.Errorf("client: session token reply key: %w", err)
	}
	pkBytes, err := readBytes(r)
	if err != nil {
		return nil, errors.New("client: session token reply key malformed")
	}
	pk, err := ecgroup.PointFromBytes(pkBytes)
	if err != nil {
		return nil, fmt.Errorf("client: session token reply key: %w", err)
	}
	if r.Len() != 0 {
		return nil, errors.New("client: trailing bytes in session token")
	}
	return &sessionToken{
		user:    string(user),
		attempt: int(attempt),
		nonce:   nonce,
		ctHash:  ctHash,
		cluster: cluster,
		reply:   ecgroup.KeyPair{SK: sk, PK: pk},
	}, nil
}

// ResumeRecovery reconstructs a crashed recovery from its session token
// without reserving (or burning) a new attempt. It re-fetches the
// ciphertext (verifying it is the one the session committed to),
// re-derives the inclusion proof for the already-logged attempt, replays
// whatever shares the provider escrowed under (user, attempt), and returns
// a session positioned exactly where the crashed one stopped: call
// RequestShares for the missing positions (already-held ones are skipped)
// and Finish to reconstruct.
func (c *Client) ResumeRecovery(ctx context.Context, token []byte) (*RecoverySession, error) {
	tok, err := parseSessionToken(token)
	if err != nil {
		return nil, err
	}
	if tok.user != c.user {
		return nil, fmt.Errorf("client: session token is for user %q, client is %q", tok.user, c.user)
	}
	blob, err := c.provider.FetchCiphertext(ctx, c.user)
	if err != nil {
		return nil, err
	}
	if protocol.HashCiphertext(blob) != tok.ctHash {
		return nil, errors.New("client: stored ciphertext changed since the session began")
	}
	ct, err := lhe.CiphertextFromBytes(blob)
	if err != nil {
		return nil, err
	}
	for _, pos := range tok.cluster {
		if pos < 0 || pos >= c.params.Total() {
			return nil, errors.New("client: session token cluster out of range")
		}
	}
	if len(tok.cluster) != len(ct.Shares) {
		return nil, errors.New("client: session token cluster does not match ciphertext")
	}
	// The attempt was logged (and its epoch committed) before the token
	// could exist, so the inclusion proof is served from the committed log.
	commit := protocol.Commitment(c.user, ct.Salt, tok.ctHash, tok.cluster, tok.nonce)
	trace, err := c.provider.FetchInclusionProof(ctx, c.user, tok.attempt, commit)
	if err != nil {
		return nil, fmt.Errorf("client: resuming attempt %d: %w", tok.attempt, err)
	}
	s := &Session{
		client:   c,
		ct:       ct,
		ctHash:   tok.ctHash,
		cluster:  tok.cluster,
		attempt:  tok.attempt,
		nonce:    tok.nonce,
		trace:    trace,
		ReplyKey: tok.reply,
		held:     make(map[int]bool),
	}
	// Replay the escrow: shares the crashed device already extracted (each
	// HSM has punctured for them — they can never be re-fetched live). They
	// are taken as live replies are: a threshold opened, the rest spares.
	replies, err := c.provider.FetchEscrowedReplies(ctx, c.user)
	if err != nil {
		return nil, err
	}
	for _, r := range replies {
		if r.SharePos < 0 || r.SharePos >= len(s.cluster) {
			continue
		}
		_ = s.take(r.SharePos, r) // unopenable escrow is another attempt's or key's: not ours
	}
	return &RecoverySession{Session: s}, nil
}

// --- token encoding helpers ---

func writeUvarint(b *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func writeBytes(b *bytes.Buffer, p []byte) {
	writeUvarint(b, uint64(len(p)))
	b.Write(p)
}

func readBytes(r *bytes.Reader) ([]byte, error) {
	n, err := binary.ReadUvarint(r)
	if err != nil {
		return nil, err
	}
	if n > uint64(r.Len()) {
		return nil, errors.New("length prefix exceeds input")
	}
	out := make([]byte, n)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, err
	}
	return out, nil
}
