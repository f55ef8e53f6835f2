package baseline

import (
	"bytes"
	"crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sync"

	"safetypin/internal/ecgroup"
	"safetypin/internal/elgamal"
	"safetypin/internal/meter"
)

// ClusterSize is the fixed replication factor used by deployed systems.
const ClusterSize = 5

// DefaultAttemptLimit mirrors the ~10-guess budgets of deployed systems.
const DefaultAttemptLimit = 10

// HSM is one baseline hardware security module. All HSMs in a cluster share
// the cluster keypair (any one can serve a recovery), which is exactly the
// single-point-of-failure property SafetyPin removes.
type HSM struct {
	mu       sync.Mutex
	id       int
	kp       ecgroup.KeyPair
	limit    int
	attempts map[[32]byte]int
	m        *meter.Meter
}

// Cluster is a fixed five-HSM backup cluster.
type Cluster struct {
	hsms []*HSM
	pk   ecgroup.Point
}

// NewCluster provisions a cluster with a shared keypair.
func NewCluster(size, attemptLimit int, rng io.Reader, ms []*meter.Meter) (*Cluster, error) {
	if size < 1 {
		return nil, errors.New("baseline: cluster needs at least one HSM")
	}
	if attemptLimit < 1 {
		attemptLimit = DefaultAttemptLimit
	}
	if rng == nil {
		rng = rand.Reader
	}
	kp, err := ecgroup.GenerateKeyPair(rng)
	if err != nil {
		return nil, err
	}
	c := &Cluster{pk: kp.PK}
	for i := 0; i < size; i++ {
		var m *meter.Meter
		if i < len(ms) {
			m = ms[i]
		}
		c.hsms = append(c.hsms, &HSM{
			id:       i,
			kp:       kp,
			limit:    attemptLimit,
			attempts: make(map[[32]byte]int),
			m:        m,
		})
	}
	return c, nil
}

// PublicKey returns the cluster encryption key.
func (c *Cluster) PublicKey() ecgroup.Point { return c.pk }

// HSMs returns the cluster members.
func (c *Cluster) HSMs() []*HSM { return c.hsms }

// hashPIN computes the salted PIN hash stored inside the ciphertext.
func hashPIN(user, pin string) []byte {
	h := sha256.New()
	h.Write([]byte("baseline/pinhash/v1|"))
	h.Write([]byte(user))
	h.Write([]byte{0})
	h.Write([]byte(pin))
	return h.Sum(nil)
}

// Backup encrypts (PIN hash ‖ recovery key) to the cluster key. It runs
// entirely on the client.
func Backup(clusterPK ecgroup.Point, user, pin string, recoveryKey []byte, rng io.Reader) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	pt := append(hashPIN(user, pin), recoveryKey...)
	ct, err := elgamal.Encrypt(clusterPK, pt, []byte("baseline/backup/v1|"+user), rng)
	if err != nil {
		return nil, err
	}
	return ct.Bytes(), nil
}

// ErrAttemptsExhausted is returned once a ciphertext's guess budget is
// spent.
var ErrAttemptsExhausted = errors.New("baseline: attempt limit reached for this ciphertext")

// ErrWrongPIN is returned for an incorrect PIN hash.
var ErrWrongPIN = errors.New("baseline: PIN hash mismatch")

// Recover is one HSM's recovery operation: decrypt, compare the client's
// claimed PIN hash, throttle attempts per ciphertext, and release the key.
func (h *HSM) Recover(user, pin string, ctBytes []byte) ([]byte, error) {
	ctID := sha256.Sum256(ctBytes)
	h.mu.Lock()
	if h.attempts[ctID] >= h.limit {
		h.mu.Unlock()
		return nil, ErrAttemptsExhausted
	}
	h.attempts[ctID]++
	h.mu.Unlock()

	ct, err := elgamal.CiphertextFromBytes(ctBytes)
	if err != nil {
		return nil, err
	}
	h.m.Add(meter.OpElGamalDecrypt, 1)
	h.m.Add(meter.OpIORoundTrip, 2)
	h.m.Add(meter.OpIOByte, int64(len(ctBytes)+64))
	pt, err := elgamal.Decrypt(h.kp.SK, ct, []byte("baseline/backup/v1|"+user))
	if err != nil {
		return nil, fmt.Errorf("baseline: hsm %d: %w", h.id, err)
	}
	if len(pt) < sha256.Size {
		return nil, errors.New("baseline: malformed plaintext")
	}
	h.m.Add(meter.OpHMAC, 1)
	if !bytes.Equal(pt[:sha256.Size], hashPIN(user, pin)) {
		return nil, ErrWrongPIN
	}
	return append([]byte(nil), pt[sha256.Size:]...), nil
}

// Attempts reports how many guesses this HSM has seen for a ciphertext.
func (h *HSM) Attempts(ctBytes []byte) int {
	ctID := sha256.Sum256(ctBytes)
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.attempts[ctID]
}

// Recover runs the client-side baseline recovery: try cluster members until
// one answers (any single HSM suffices — the fault-tolerance story of
// deployed systems, and their security weakness).
func (c *Cluster) Recover(user, pin string, ctBytes []byte) ([]byte, error) {
	var lastErr error
	for _, h := range c.hsms {
		key, err := h.Recover(user, pin, ctBytes)
		if err == nil {
			return key, nil
		}
		lastErr = err
		if errors.Is(err, ErrWrongPIN) {
			return nil, err // guessing again at another HSM would double-spend
		}
	}
	return nil, lastErr
}
