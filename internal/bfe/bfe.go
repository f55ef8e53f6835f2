package bfe

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"safetypin/internal/ecgroup"
	"safetypin/internal/elgamal"
	"safetypin/internal/meter"
	"safetypin/internal/prg"
	"safetypin/internal/securestore"
)

// TagSize is the length of the random ciphertext tag.
const TagSize = 32

const positionLabel = "safetypin/bfe/positions/v1"

// Params fixes a Bloom-filter-encryption instantiation.
type Params struct {
	M int // number of filter positions (secret-key array length)
	K int // positions per ciphertext
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.M < 1 {
		return fmt.Errorf("bfe: M = %d must be positive", p.M)
	}
	if p.K < 1 || p.K > p.M {
		return fmt.Errorf("bfe: K = %d out of range [1,%d]", p.K, p.M)
	}
	return nil
}

// ParamsForPunctures sizes the filter so that after maxPunctures punctures
// at most half the positions are deleted (the paper's rotation point), at
// which point a fresh ciphertext fails to decrypt with probability at most
// 2^-failureBits.
func ParamsForPunctures(maxPunctures, failureBits int) Params {
	k := failureBits
	if k < 1 {
		k = 1
	}
	m := 2 * k * maxPunctures
	if m < k {
		m = k
	}
	return Params{M: m, K: k}
}

// MaxPunctures returns the puncture budget before rotation (half-full rule).
func (p Params) MaxPunctures() int { return p.M / (2 * p.K) }

// SecretKeyBytes returns the size of the outsourced secret-key array, the
// x-axis of Figure 9.
func (p Params) SecretKeyBytes() int { return p.M * ecgroup.ScalarSize }

// positions derives the K distinct filter positions for a tag.
func (p Params) positions(tag []byte) ([]int, error) {
	seed := make([]byte, 0, TagSize+8)
	seed = append(seed, tag...)
	var dims [8]byte
	binary.BigEndian.PutUint32(dims[:4], uint32(p.M))
	binary.BigEndian.PutUint32(dims[4:], uint32(p.K))
	seed = append(seed, dims[:]...)
	return prg.Indices(positionLabel, seed, p.K, p.M)
}

// PositionsForTag exposes the tag→positions mapping for harnesses that
// derive sparse public keys (see PrivateKey.PublicKeyAt).
func PositionsForTag(p Params, tag []byte) ([]int, error) {
	return p.positions(tag)
}

// pieceAD extends the caller's domain separation with the tag and the piece
// position, so ciphertext pieces cannot be replayed across positions.
func pieceAD(ad, tag []byte, piece, position int) []byte {
	out := make([]byte, 0, len(ad)+len(tag)+12+len("safetypin/bfe/piece/v1"))
	out = append(out, "safetypin/bfe/piece/v1"...)
	var n [8]byte
	binary.BigEndian.PutUint32(n[:4], uint32(piece))
	binary.BigEndian.PutUint32(n[4:], uint32(position))
	out = append(out, n[:]...)
	out = append(out, tag...)
	out = append(out, ad...)
	return out
}

// PublicKey is the client-side key: one P-256 point per filter position.
type PublicKey struct {
	Params
	Points []ecgroup.Point
}

// PrivateKey is the HSM-side key: the outsourced scalar array plus the
// puncture counter that drives key rotation.
type PrivateKey struct {
	Params
	store     *securestore.Store //spin:secret
	punctured int
	meter     *meter.Meter
}

// KeyGen generates a fresh keypair, outsourcing the secret array to oracle.
// m (which may be nil) is charged M point multiplications — the dominant
// cost of the paper's 75-hour on-HSM key rotation.
func KeyGen(p Params, oracle securestore.Oracle, rng io.Reader, m *meter.Meter) (*PrivateKey, *PublicKey, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	points := make([]ecgroup.Point, p.M)
	blocks := make([][]byte, p.M)
	for i := 0; i < p.M; i++ {
		kp, err := ecgroup.GenerateKeyPair(rng)
		if err != nil {
			return nil, nil, err
		}
		points[i] = kp.PK
		blocks[i] = kp.SK.Bytes()
	}
	m.Add(meter.OpECMul, int64(p.M))
	st, err := securestore.Setup(oracle, blocks, rng, m)
	if err != nil {
		return nil, nil, err
	}
	return &PrivateKey{Params: p, store: st, meter: m},
		&PublicKey{Params: p, Points: points}, nil
}

// KeyGenBatch is KeyGen on the fleet-provisioning fast path: all M secret
// blocks are sampled up front from one bulk entropy read and the M public
// points run through the batch fixed-base multiplication
// (ecgroup.GenerateKeyPairs) instead of M rejection-sampled per-point
// calls. The naive per-point KeyGen is retained as the differential
// oracle — both produce keys with pk[i] = sk[i]·G over identical store
// geometry (bfe_test.go checks one against the other structurally).
func KeyGenBatch(p Params, oracle securestore.Oracle, rng io.Reader, m *meter.Meter) (*PrivateKey, *PublicKey, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	kps, err := ecgroup.GenerateKeyPairs(rng, p.M)
	if err != nil {
		return nil, nil, err
	}
	points := make([]ecgroup.Point, p.M)
	blocks := make([][]byte, p.M)
	for i, kp := range kps {
		points[i] = kp.PK
		blocks[i] = kp.SK.Bytes()
	}
	m.Add(meter.OpECMul, int64(p.M))
	st, err := securestore.Setup(oracle, blocks, rng, m)
	if err != nil {
		return nil, nil, err
	}
	return &PrivateKey{Params: p, store: st, meter: m},
		&PublicKey{Params: p, Points: points}, nil
}

// KeyGenSecretOnly generates only the outsourced secret array, skipping the
// M point multiplications for the public key. The evaluation harness uses
// it to build paper-scale keys (tens of MB) quickly; PublicKeyAt derives
// individual public keys on demand.
func KeyGenSecretOnly(p Params, oracle securestore.Oracle, rng io.Reader, m *meter.Meter) (*PrivateKey, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	blocks := make([][]byte, p.M)
	for i := 0; i < p.M; i++ {
		s, err := ecgroup.RandomScalar(rng)
		if err != nil {
			return nil, err
		}
		blocks[i] = s.Bytes()
	}
	st, err := securestore.Setup(oracle, blocks, rng, m)
	if err != nil {
		return nil, err
	}
	return &PrivateKey{Params: p, store: st, meter: m}, nil
}

// SwapOracle repoints the key's outsourced secret array at a different
// oracle holding the same blocks (see securestore.Store.SetOracle) —
// the reattach path after a provider restart rebuilds the hosted store.
func (sk *PrivateKey) SwapOracle(o securestore.Oracle) { sk.store.SetOracle(o) }

// PublicKeyAt derives the public key of a single position by reading its
// scalar (errors if that position was punctured).
func (sk *PrivateKey) PublicKeyAt(i int) (ecgroup.Point, error) {
	raw, err := sk.store.Read(i)
	if err != nil {
		return ecgroup.Point{}, err
	}
	s, err := ecgroup.ScalarFromBytes(raw)
	if err != nil {
		return ecgroup.Point{}, fmt.Errorf("bfe: stored scalar corrupt: %w", err)
	}
	return ecgroup.BaseMul(s), nil
}

// Encrypt encrypts msg under pk with domain separation ad and a fresh
// random tag.
func (pk *PublicKey) Encrypt(msg, ad []byte, rng io.Reader) ([]byte, error) {
	tag := make([]byte, TagSize)
	if _, err := io.ReadFull(rng, tag); err != nil {
		return nil, fmt.Errorf("bfe: sampling tag: %w", err)
	}
	return pk.EncryptWithTag(tag, msg, ad, rng)
}

// EncryptWithTag encrypts msg under pk using a caller-chosen tag. SafetyPin
// clients derive the tag deterministically from (user, salt, position), so
// every backup in a same-salt series lands on the same filter positions:
// one puncture then revokes the client's entire ciphertext history at that
// HSM (§8, "Multiple recovery ciphertexts").
func (pk *PublicKey) EncryptWithTag(tag, msg, ad []byte, rng io.Reader) ([]byte, error) {
	if len(tag) != TagSize {
		return nil, fmt.Errorf("bfe: tag must be %d bytes, got %d", TagSize, len(tag))
	}
	pos, err := pk.positions(tag)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), tag...)
	var cnt [4]byte
	binary.BigEndian.PutUint32(cnt[:], uint32(pk.K))
	out = append(out, cnt[:]...)
	for j, position := range pos {
		c, err := elgamal.Encrypt(pk.Points[position], msg, pieceAD(ad, tag, j, position), rng)
		if err != nil {
			return nil, err
		}
		cb := c.Bytes()
		var l [4]byte
		binary.BigEndian.PutUint32(l[:], uint32(len(cb)))
		out = append(out, l[:]...)
		out = append(out, cb...)
	}
	return out, nil
}

// parse splits a serialized ciphertext into its tag and pieces.
func (p Params) parse(ct []byte) (tag []byte, pieces [][]byte, err error) {
	if len(ct) < TagSize+4 {
		return nil, nil, errors.New("bfe: ciphertext too short")
	}
	tag = ct[:TagSize]
	n := binary.BigEndian.Uint32(ct[TagSize:])
	if int(n) != p.K {
		return nil, nil, fmt.Errorf("bfe: ciphertext has %d pieces, params say %d", n, p.K)
	}
	rest := ct[TagSize+4:]
	for i := 0; i < int(n); i++ {
		if len(rest) < 4 {
			return nil, nil, errors.New("bfe: truncated piece length")
		}
		l := binary.BigEndian.Uint32(rest)
		rest = rest[4:]
		if int(l) > len(rest) {
			return nil, nil, errors.New("bfe: truncated piece")
		}
		pieces = append(pieces, rest[:l])
		rest = rest[l:]
	}
	if len(rest) != 0 {
		return nil, nil, errors.New("bfe: trailing bytes")
	}
	return tag, pieces, nil
}

// ErrPunctured is returned when every position of a ciphertext has been
// deleted.
var ErrPunctured = errors.New("bfe: ciphertext is punctured (all positions deleted)")

// decrypt attempts decryption, optionally puncturing afterwards. All K
// positions load in one store exchange; a puncture deletes them in one
// more (plus its write).
func (sk *PrivateKey) decrypt(ct, ad []byte, puncture bool) ([]byte, error) {
	tag, pieces, err := sk.parse(ct)
	if err != nil {
		return nil, err
	}
	pos, err := sk.positions(tag)
	if err != nil {
		return nil, err
	}
	scalars, err := sk.store.ReadMany(pos)
	if err != nil {
		return nil, err
	}
	var msg []byte
	found := false
	var lastErr error
	for j, raw := range scalars {
		if raw == nil || found {
			continue // position deleted, or an earlier piece already opened
		}
		s, err := ecgroup.ScalarFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("bfe: stored scalar corrupt: %w", err)
		}
		parsed, err := elgamal.CiphertextFromBytes(pieces[j])
		if err != nil {
			lastErr = err
			continue
		}
		sk.meter.Add(meter.OpElGamalDecrypt, 1)
		pt, err := elgamal.Decrypt(s, ecgroup.BaseMul(s), parsed, pieceAD(ad, tag, j, pos[j]))
		if err != nil {
			lastErr = err
			continue
		}
		msg, found = pt, true
	}
	if puncture {
		if err := sk.puncture(pos); err != nil {
			return nil, err
		}
	}
	if !found {
		if lastErr != nil {
			return nil, fmt.Errorf("bfe: no piece decrypted: %w", lastErr)
		}
		return nil, ErrPunctured
	}
	return msg, nil
}

// puncture deletes filter positions pos; positions already gone are not
// counted twice.
func (sk *PrivateKey) puncture(pos []int) error {
	n, err := sk.store.DeleteMany(pos)
	sk.punctured += n
	return err
}

// Decrypt decrypts ct without puncturing.
func (sk *PrivateKey) Decrypt(ct, ad []byte) ([]byte, error) {
	return sk.decrypt(ct, ad, false)
}

// DecryptAndPuncture decrypts ct and then securely deletes all of its
// positions — the HSM's recovery-path operation (Figure 9). The returned
// plaintext is valid even though the ciphertext is now dead.
func (sk *PrivateKey) DecryptAndPuncture(ct, ad []byte) ([]byte, error) {
	return sk.decrypt(ct, ad, true)
}

// Puncture deletes ct's positions without decrypting.
func (sk *PrivateKey) Puncture(ct []byte) error {
	tag, _, err := sk.parse(ct)
	if err != nil {
		return err
	}
	pos, err := sk.positions(tag)
	if err != nil {
		return err
	}
	return sk.puncture(pos)
}

// PuncturedCount returns the number of filter positions deleted so far
// (positions shared by several punctured ciphertexts count once).
func (sk *PrivateKey) PuncturedCount() int { return sk.punctured }

// NeedsRotation reports whether half of the secret-key elements have been
// deleted — the paper's key-rotation trigger (§9.1).
func (sk *PrivateKey) NeedsRotation() bool { return sk.punctured >= sk.M/2 }

// DecryptShare implements lhe.ShareDecrypter (decrypt without puncture; the
// HSM punctures explicitly after its protocol checks pass).
func (sk *PrivateKey) DecryptShare(ct, ad []byte) ([]byte, error) {
	return sk.Decrypt(ct, ad)
}

// Fleet is the client-side view of all HSMs' BFE public keys; it implements
// lhe.Encryptor so location-hiding encryption can spread shares over
// puncturable keys.
type Fleet struct {
	keys []*PublicKey
}

// NewFleet wraps the fleet's public keys.
func NewFleet(keys []*PublicKey) *Fleet { return &Fleet{keys: keys} }

// Key returns the public key of one HSM.
func (f *Fleet) Key(i int) *PublicKey { return f.keys[i] }

// Replace swaps in a rotated public key for one HSM.
func (f *Fleet) Replace(i int, pk *PublicKey) { f.keys[i] = pk }

// EncryptTo implements lhe.Encryptor. The tag is derived from the share's
// domain-separation string, which is stable across a client's same-salt
// backup series (see EncryptWithTag).
func (f *Fleet) EncryptTo(index int, msg, ad []byte, rng io.Reader) ([]byte, error) {
	if index < 0 || index >= len(f.keys) {
		return nil, fmt.Errorf("bfe: HSM index %d out of range [0,%d)", index, len(f.keys))
	}
	tagH := sha256.New()
	tagH.Write([]byte("safetypin/bfe/tag/v1"))
	tagH.Write(ad)
	return f.keys[index].EncryptWithTag(tagH.Sum(nil), msg, ad, rng)
}

// Bytes serializes the public key.
func (pk *PublicKey) Bytes() []byte {
	out := make([]byte, 8, 8+len(pk.Points)*ecgroup.PointSize)
	binary.BigEndian.PutUint32(out[:4], uint32(pk.M))
	binary.BigEndian.PutUint32(out[4:], uint32(pk.K))
	for _, pt := range pk.Points {
		out = append(out, pt.Bytes()...)
	}
	return out
}

// PublicKeyFromBytes parses a serialized public key.
func PublicKeyFromBytes(b []byte) (*PublicKey, error) {
	if len(b) < 8 {
		return nil, errors.New("bfe: public key too short")
	}
	p := Params{M: int(binary.BigEndian.Uint32(b[:4])), K: int(binary.BigEndian.Uint32(b[4:8]))}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rest := b[8:]
	if len(rest) != p.M*ecgroup.PointSize {
		return nil, fmt.Errorf("bfe: expected %d point bytes, got %d", p.M*ecgroup.PointSize, len(rest))
	}
	pk := &PublicKey{Params: p, Points: make([]ecgroup.Point, p.M)}
	for i := 0; i < p.M; i++ {
		pt, err := ecgroup.PointFromBytes(rest[i*ecgroup.PointSize : (i+1)*ecgroup.PointSize])
		if err != nil {
			return nil, fmt.Errorf("bfe: point %d: %w", i, err)
		}
		pk.Points[i] = pt
	}
	return pk, nil
}
