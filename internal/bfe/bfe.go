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

const (
	positionLabel = "safetypin/bfe/positions/v1"
	pieceLabel    = "safetypin/bfe/piece/v2"
	tagLabel      = "safetypin/bfe/tag/v2"
)

// headerSize is the cleartext front of a ciphertext: the tag and the one
// nonce point its K boxes share.
const headerSize = TagSize + ecgroup.PointSize

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

// pieceAD extends the caller's domain separation with the tag, the piece
// index and the filter position. It is the name the KDF binds a box to: the
// K boxes of a ciphertext share one nonce, so this string — with whatever
// recipient identity the caller's ad carries — is what keeps a box from
// opening at another piece, another position or another key holder.
func pieceAD(ad, tag []byte, piece, position int) []byte {
	out := make([]byte, 0, len(ad)+len(tag)+8+len(pieceLabel))
	out = append(out, pieceLabel...)
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
	kps := make([]ecgroup.KeyPair, p.M)
	for i := range kps {
		var err error
		if kps[i], err = ecgroup.GenerateKeyPair(rng); err != nil {
			return nil, nil, err
		}
	}
	return outsource(p, kps, oracle, rng, m)
}

// KeyGenBatch is KeyGen on the fleet-provisioning fast path: all M secret
// blocks are sampled up front from one bulk entropy read
// (ecgroup.GenerateKeyPairs) instead of M rejection-sampled per-point
// calls. Both produce keys with pk[i] = sk[i]·G over identical store
// geometry (bfe_test.go checks one against the other structurally).
func KeyGenBatch(p Params, oracle securestore.Oracle, rng io.Reader, m *meter.Meter) (*PrivateKey, *PublicKey, error) {
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	kps, err := ecgroup.GenerateKeyPairs(rng, p.M)
	if err != nil {
		return nil, nil, err
	}
	return outsource(p, kps, oracle, rng, m)
}

// outsource splits M keypairs into the public key and the secret array in
// the oracle-hosted store.
func outsource(p Params, kps []ecgroup.KeyPair, oracle securestore.Oracle, rng io.Reader, m *meter.Meter) (*PrivateKey, *PublicKey, error) {
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
//
// The ciphertext is tag ‖ R ‖ K boxes of len(msg)+16 bytes each: one nonce
// R = r·G serves all K positions (elgamal.Ephemeral), box j sealed to the
// key at the tag's j-th position under pieceAD.
func (pk *PublicKey) EncryptWithTag(tag, msg, ad []byte, rng io.Reader) ([]byte, error) {
	if len(tag) != TagSize {
		return nil, fmt.Errorf("bfe: tag must be %d bytes, got %d", TagSize, len(tag))
	}
	pos, err := pk.positions(tag)
	if err != nil {
		return nil, err
	}
	e, err := elgamal.NewEphemeral(rng)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, headerSize+pk.K*(len(msg)+elgamal.BoxOverhead))
	out = append(out, tag...)
	out = append(out, e.R.Bytes()...)
	for j, position := range pos {
		box, err := e.Seal(pk.Points[position], msg, pieceAD(ad, tag, j, position))
		if err != nil {
			return nil, err
		}
		out = append(out, box...)
	}
	return out, nil
}

// ciphertext is a serialized ciphertext taken apart, once per operation.
type ciphertext struct {
	tag   []byte
	pos   []int         // the tag's K filter positions
	r     ecgroup.Point // the nonce the boxes share
	boxes []byte        // K boxes of equal length, back to back
}

func (c *ciphertext) box(j int) []byte {
	n := len(c.boxes) / len(c.pos)
	return c.boxes[j*n : (j+1)*n]
}

// parse splits a serialized ciphertext. The layout has no framing to trust:
// the length alone must account for a header and K equal boxes.
func (p Params) parse(ct []byte) (*ciphertext, error) {
	n := len(ct) - headerSize
	if n < p.K*elgamal.BoxOverhead || n%p.K != 0 {
		return nil, fmt.Errorf("bfe: ciphertext of %d bytes is not a header and %d equal boxes", len(ct), p.K)
	}
	r, err := ecgroup.PointFromBytes(ct[TagSize:headerSize])
	if err != nil {
		return nil, fmt.Errorf("bfe: parsing nonce point: %w", err)
	}
	tag := ct[:TagSize]
	pos, err := p.positions(tag)
	if err != nil {
		return nil, err
	}
	return &ciphertext{tag: tag, pos: pos, r: r, boxes: ct[headerSize:]}, nil
}

// ErrPunctured is returned when every position of a ciphertext is deleted.
var ErrPunctured = errors.New("bfe: ciphertext is punctured (all positions deleted)")

// open is the one decrypt routine; Decrypt, DecryptAndPuncture and
// DecryptAndPunctureIf are what it is called with. It takes ct apart once,
// loads the K position keys in one pass of the store and opens the first
// box whose key is still there. puncture, unless nil, then sees the
// plaintext: if it accepts, the K positions are deleted in that same pass —
// one more store exchange, the write — before open returns. If it refuses,
// if nothing opened, or if that write fails, the key is as it was.
func (sk *PrivateKey) open(ct, ad []byte, puncture func(pt []byte) error) ([]byte, error) {
	c, err := sk.parse(ct)
	if err != nil {
		return nil, err
	}
	var msg []byte
	n, err := sk.store.ReadDelete(c.pos, func(scalars [][]byte) (bool, error) {
		var err error
		if msg, err = sk.openFirst(c, scalars, ad); err != nil || puncture == nil {
			return false, err
		}
		return true, puncture(msg)
	})
	if err != nil {
		return nil, err
	}
	sk.punctured += n
	return msg, nil
}

// openFirst opens the first box of c whose position key (scalars[j], nil
// once deleted) still exists.
func (sk *PrivateKey) openFirst(c *ciphertext, scalars [][]byte, ad []byte) ([]byte, error) {
	var lastErr error
	for j, raw := range scalars {
		if raw == nil {
			continue // position deleted
		}
		s, err := ecgroup.ScalarFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("bfe: stored scalar corrupt: %w", err)
		}
		sk.meter.Add(meter.OpElGamalDecrypt, 1)
		pt, err := elgamal.Decrypt(s, elgamal.Ciphertext{R: c.r, Box: c.box(j)}, pieceAD(ad, c.tag, j, c.pos[j]))
		if err == nil {
			return pt, nil
		}
		lastErr = err
	}
	if lastErr != nil {
		return nil, fmt.Errorf("bfe: no piece decrypted: %w", lastErr)
	}
	return nil, ErrPunctured
}

// Decrypt decrypts ct without puncturing. It implements lhe.ShareDecrypter.
func (sk *PrivateKey) Decrypt(ct, ad []byte) ([]byte, error) {
	return sk.open(ct, ad, nil)
}

// DecryptAndPuncture decrypts ct and securely deletes all of its positions
// — the HSM's recovery-path operation (Figure 9). The returned plaintext is
// valid even though the ciphertext is now dead. A ciphertext that does not
// decrypt punctures nothing.
func (sk *PrivateKey) DecryptAndPuncture(ct, ad []byte) ([]byte, error) {
	return sk.open(ct, ad, func([]byte) error { return nil })
}

// DecryptAndPunctureIf is DecryptAndPuncture with the caller's own check on
// the plaintext between the two halves: ct's positions are deleted only if
// check accepts, and check's refusal is the error returned. It implements
// lhe.SharePuncturer.
func (sk *PrivateKey) DecryptAndPunctureIf(ct, ad []byte, check func(pt []byte) error) ([]byte, error) {
	return sk.open(ct, ad, check)
}

// Puncture deletes ct's positions without decrypting; positions already
// gone are not counted twice.
func (sk *PrivateKey) Puncture(ct []byte) error {
	c, err := sk.parse(ct)
	if err != nil {
		return err
	}
	n, err := sk.store.DeleteMany(c.pos)
	sk.punctured += n
	return err
}

// PuncturedCount returns the number of filter positions deleted so far
// (positions shared by several punctured ciphertexts count once).
func (sk *PrivateKey) PuncturedCount() int { return sk.punctured }

// NeedsRotation reports whether half of the secret-key elements have been
// deleted — the paper's key-rotation trigger (§9.1).
func (sk *PrivateKey) NeedsRotation() bool { return sk.punctured >= sk.M/2 }

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

// EncryptTo implements lhe.Encryptor. The tag travels in the clear, so it is
// derived from series alone — the share slot's name, stable across a
// client's same-salt backups (see EncryptWithTag) and the same whichever
// HSM the slot falls to. ad, which names the recipient, reaches only the
// KDF and the AEAD.
func (f *Fleet) EncryptTo(index int, series, msg, ad []byte, rng io.Reader) ([]byte, error) {
	if index < 0 || index >= len(f.keys) {
		return nil, fmt.Errorf("bfe: HSM index %d out of range [0,%d)", index, len(f.keys))
	}
	tagH := sha256.New()
	tagH.Write([]byte(tagLabel))
	tagH.Write(series)
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
