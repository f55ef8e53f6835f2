package aggsig

import (
	"crypto/ecdsa"
	cryptoRand "crypto/rand"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/big"
	"slices"

	"safetypin/internal/bls"
	"safetypin/internal/ecgroup"
	"safetypin/internal/meter"
)

// PublicKey is an opaque verification key.
type PublicKey interface {
	Bytes() []byte
}

// Message is a message hashed by Scheme.HashMessage into the form its
// scheme signs and verifies — the G1 point H(m) for BLS, the SHA-256
// digest for ECDSA-concat. An HSM hashes an epoch header once, signs it,
// and verifies the aggregate over it later from the same Message.
type Message struct {
	scheme string      // Name() of the scheme that hashed it
	point  bls.Message // BLS
	digest [32]byte    // ECDSA-concat
}

// errForeignMessage rejects a Message hashed by another scheme.
var errForeignMessage = errors.New("aggsig: message was hashed by another scheme")

// Signer is the HSM-side signing handle.
type Signer interface {
	// Sign signs msg; it is SignMessage(scheme.HashMessage(msg)).
	Sign(msg []byte) ([]byte, error)
	// SignMessage signs a message hashed by this signer's scheme.
	SignMessage(m Message) ([]byte, error)
	PublicKey() PublicKey
}

// KeyGenBatch creates n signers under s. It is s.KeyGenBatch, kept as a
// package function for the benchmark harness.
func KeyGenBatch(s Scheme, rng io.Reader, n int) ([]Signer, error) {
	return s.KeyGenBatch(rng, n)
}

// Scheme bundles key generation, aggregation, and verification. Both
// backends implement all of it, so the epoch path runs the same code from
// RosterCache through dlog's HandleCommit over either.
type Scheme interface {
	// Name identifies the scheme in benchmarks and logs.
	Name() string
	// KeyGen creates a signer.
	KeyGen(rng io.Reader) (Signer, error)
	// KeyGenBatch creates n signers; fleet provisioning generates every
	// HSM's roster identity through it (BLS shares one batch inversion
	// across all the public-key affine conversions).
	KeyGenBatch(rng io.Reader, n int) ([]Signer, error)
	// ParsePublicKey decodes a serialized public key.
	ParsePublicKey(b []byte) (PublicKey, error)
	// HashMessage hashes msg for SignMessage and VerifyWithKey.
	HashMessage(msg []byte) Message
	// Aggregate combines signatures produced over the same msg by the
	// signers whose public keys will be passed, in the same order, to
	// VerifyAggregate.
	Aggregate(sigs [][]byte) ([]byte, error)
	// AggregateKeys combines the ordered signer keys into one
	// verification key.
	AggregateKeys(pks []PublicKey) (PublicKey, error)
	// SubtractKeys removes the missing keys from an aggregate, returning
	// exactly the key AggregateKeys would produce over the remaining
	// keys in their original order (byte-identical serialization).
	SubtractKeys(full PublicKey, missing []PublicKey) (PublicKey, error)
	// VerifyWithKey checks aggSig over the hashed message m against an
	// aggregate key from AggregateKeys, SubtractKeys or RosterCache.
	VerifyWithKey(apk PublicKey, m Message, aggSig []byte) (bool, error)
	// VerifyAggregate checks the aggregate signature over msg against the
	// ordered signer set: VerifyWithKey(AggregateKeys(pks),
	// HashMessage(msg), aggSig).
	VerifyAggregate(pks []PublicKey, msg, aggSig []byte) (bool, error)
	// MeterVerify charges one aggregate verification (with the given signer
	// count) to m, using the device-op vocabulary of package meter.
	MeterVerify(m *meter.Meter, numSigners int)
	// MeterSign charges one signing operation to m.
	MeterSign(m *meter.Meter)
}

// --- BLS multisignature backend ---

// BLS returns the BLS12-381 multisignature scheme, hashing messages with
// RFC 9380 (constant-time SSWU).
func BLS() Scheme { return blsScheme{} }

type blsScheme struct{}

type blsSigner struct {
	sk *bls.SecretKey //spin:secret
	pk *bls.PublicKey
}

type blsPub struct{ pk *bls.PublicKey }

// blsPubVersion prefixes the wire encoding of BLS public keys: version 1
// is the IETF/zcash 96-byte compressed G2 format. It is the only accepted
// encoding.
const blsPubVersion = 0x01

func (blsScheme) Name() string { return "bls12381-multisig" }

func (blsScheme) KeyGen(rng io.Reader) (Signer, error) {
	sk, pk, err := bls.GenerateKey(rng)
	if err != nil {
		return nil, err
	}
	return &blsSigner{sk: sk, pk: pk}, nil
}

// KeyGenBatch creates n signers with one shared batch inversion across all
// the public-key affine conversions (bls.GenerateKeyBatch); every secret
// scalar still runs the constant-time comb individually.
func (blsScheme) KeyGenBatch(rng io.Reader, n int) ([]Signer, error) {
	sks, pks, err := bls.GenerateKeyBatch(rng, n)
	if err != nil {
		return nil, err
	}
	out := make([]Signer, n)
	for i := range out {
		out[i] = &blsSigner{sk: sks[i], pk: pks[i]}
	}
	return out, nil
}

// HashMessage hashes msg onto G1.
func (s blsScheme) HashMessage(msg []byte) Message {
	return Message{scheme: s.Name(), point: bls.HashMessage(msg)}
}

func (s *blsSigner) Sign(msg []byte) ([]byte, error) {
	return s.SignMessage(blsScheme{}.HashMessage(msg))
}

func (s *blsSigner) SignMessage(m Message) ([]byte, error) {
	if m.scheme != (blsScheme{}).Name() {
		return nil, errForeignMessage
	}
	return s.sk.SignMessage(m.point).Bytes(), nil
}

func (s *blsSigner) PublicKey() PublicKey { return blsPub{s.pk} }

func (p blsPub) Bytes() []byte {
	return append([]byte{blsPubVersion}, p.pk.BytesCompressed()...)
}

// ParsePublicKey accepts only the version-1 compressed key, and refuses
// the identity (bls.PublicKeyFromCompressedBytes): in a roster it would
// add nothing to a quorum key, so a provider could list its index as a
// signer that never signed.
func (blsScheme) ParsePublicKey(b []byte) (PublicKey, error) {
	if len(b) != 1+bls.G2CompressedSize || b[0] != blsPubVersion {
		return nil, fmt.Errorf("aggsig: unrecognized BLS public key encoding (%d bytes)", len(b))
	}
	pk, err := bls.PublicKeyFromCompressedBytes(b[1:])
	if err != nil {
		return nil, err
	}
	return blsPub{pk}, nil
}

func (blsScheme) Aggregate(sigs [][]byte) ([]byte, error) {
	parsed := make([]*bls.Signature, len(sigs))
	for i, raw := range sigs {
		s, err := bls.SignatureFromBytes(raw)
		if err != nil {
			return nil, fmt.Errorf("aggsig: signature %d: %w", i, err)
		}
		parsed[i] = s
	}
	agg, err := bls.AggregateSignatures(parsed)
	if err != nil {
		return nil, err
	}
	return agg.Bytes(), nil
}

// blsRoster converts an aggsig roster to the underlying BLS keys.
func blsRoster(pks []PublicKey) ([]*bls.PublicKey, error) {
	keys := make([]*bls.PublicKey, len(pks))
	for i, pk := range pks {
		bp, ok := pk.(blsPub)
		if !ok {
			return nil, fmt.Errorf("aggsig: key %d is not a BLS key", i)
		}
		keys[i] = bp.pk
	}
	return keys, nil
}

// AggregateKeys sums the roster into the aggregate verification key via
// the batch-affine Pippenger layer (bls.AggregatePublicKeys).
func (blsScheme) AggregateKeys(pks []PublicKey) (PublicKey, error) {
	if len(pks) == 0 {
		return nil, errors.New("aggsig: empty signer set")
	}
	keys, err := blsRoster(pks)
	if err != nil {
		return nil, err
	}
	apk, err := bls.AggregatePublicKeys(keys)
	if err != nil {
		return nil, err
	}
	return blsPub{apk}, nil
}

// SubtractKeys removes missing signers from the full-roster aggregate:
// O(missing) G2 additions against AggregateKeys' O(n) MSM.
func (blsScheme) SubtractKeys(full PublicKey, missing []PublicKey) (PublicKey, error) {
	fp, ok := full.(blsPub)
	if !ok {
		return nil, errors.New("aggsig: aggregate is not a BLS key")
	}
	keys, err := blsRoster(missing)
	if err != nil {
		return nil, err
	}
	apk, err := bls.SubtractPublicKeys(fp.pk, keys)
	if err != nil {
		return nil, err
	}
	return blsPub{apk}, nil
}

// VerifyWithKey checks an aggregate signature against a pre-aggregated
// verification key — the cached-quorum-key fast path of RosterCache.
func (s blsScheme) VerifyWithKey(apk PublicKey, m Message, aggSig []byte) (bool, error) {
	bp, ok := apk.(blsPub)
	if !ok {
		return false, errors.New("aggsig: aggregate is not a BLS key")
	}
	if m.scheme != s.Name() {
		return false, errForeignMessage
	}
	sig, err := bls.SignatureFromBytes(aggSig)
	if err != nil {
		return false, err
	}
	return bp.pk.VerifyMessage(m.point, sig)
}

func (s blsScheme) VerifyAggregate(pks []PublicKey, msg, aggSig []byte) (bool, error) {
	apk, err := s.AggregateKeys(pks)
	if err != nil {
		return false, err
	}
	return s.VerifyWithKey(apk, s.HashMessage(msg), aggSig)
}

func (blsScheme) MeterVerify(m *meter.Meter, numSigners int) {
	// Verification is one multi-pairing of two pairs — 2 Miller loops
	// sharing a single final exponentiation (bls.PairingCheck),
	// independent of numSigners — plus the roster aggregation (n−1
	// batch-affine G2 additions) and the endomorphism subgroup check
	// that parses the aggregate signature off the wire.
	m.Add(meter.OpMillerLoop, 2)
	m.Add(meter.OpFinalExp, 1)
	m.Add(meter.OpG2Add, int64(numSigners)-1)
	m.Add(meter.OpSubgroupCheck, 1)
}

func (blsScheme) MeterSign(m *meter.Meter) {
	m.Add(meter.OpBLSSign, 1)
}

// --- ECDSA concatenation backend (ablation) ---

// ECDSAConcat returns the trivial "aggregate" scheme: signatures are
// concatenated and verified one by one, and an aggregate key is the ordered
// list of signer keys. Same interface, linear cost.
func ECDSAConcat() Scheme { return ecdsaScheme{} }

type ecdsaScheme struct{}

type ecdsaSigner struct {
	kp ecgroup.KeyPair
}

// ecdsaPub is an ordered list of P-256 keys: one for a signer, the signers'
// keys in order for an aggregate. Bytes is their concatenation.
type ecdsaPub struct{ ps []ecgroup.Point }

func (ecdsaScheme) Name() string { return "ecdsa-concat" }

func (ecdsaScheme) KeyGen(rng io.Reader) (Signer, error) {
	kp, err := ecgroup.GenerateKeyPair(rng)
	if err != nil {
		return nil, err
	}
	return &ecdsaSigner{kp: kp}, nil
}

// KeyGenBatch is n KeyGen calls: ECDSA keys share no work.
func (s ecdsaScheme) KeyGenBatch(rng io.Reader, n int) ([]Signer, error) {
	out := make([]Signer, n)
	for i := range out {
		signer, err := s.KeyGen(rng)
		if err != nil {
			return nil, err
		}
		out[i] = signer
	}
	return out, nil
}

// ecdsaSigSize is the fixed encoding: r ‖ s, 32 bytes each.
const ecdsaSigSize = 64

// HashMessage is the SHA-256 digest ECDSA signs and verifies.
func (s ecdsaScheme) HashMessage(msg []byte) Message {
	return Message{scheme: s.Name(), digest: sha256.Sum256(msg)}
}

func (s *ecdsaSigner) Sign(msg []byte) ([]byte, error) {
	return s.SignMessage(ecdsaScheme{}.HashMessage(msg))
}

func (s *ecdsaSigner) SignMessage(m Message) ([]byte, error) {
	if m.scheme != (ecdsaScheme{}).Name() {
		return nil, errForeignMessage
	}
	r, sv, err := ecdsa.Sign(randReader{}, s.kp.ToECDSA(), m.digest[:])
	if err != nil {
		return nil, err
	}
	out := make([]byte, ecdsaSigSize)
	r.FillBytes(out[:32])
	sv.FillBytes(out[32:])
	return out, nil
}

func (s *ecdsaSigner) PublicKey() PublicKey { return ecdsaPub{[]ecgroup.Point{s.kp.PK}} }

func (p ecdsaPub) Bytes() []byte {
	out := make([]byte, 0, len(p.ps)*ecgroup.PointSize)
	for _, pt := range p.ps {
		out = append(out, pt.Bytes()...)
	}
	return out
}

func (ecdsaScheme) ParsePublicKey(b []byte) (PublicKey, error) {
	pt, err := ecgroup.PointFromBytes(b)
	if err != nil {
		return nil, err
	}
	return ecdsaPub{[]ecgroup.Point{pt}}, nil
}

func (ecdsaScheme) Aggregate(sigs [][]byte) ([]byte, error) {
	if len(sigs) == 0 {
		return nil, errors.New("aggsig: nothing to aggregate")
	}
	out := make([]byte, 0, len(sigs)*ecdsaSigSize)
	for i, s := range sigs {
		if len(s) != ecdsaSigSize {
			return nil, fmt.Errorf("aggsig: signature %d has length %d", i, len(s))
		}
		out = append(out, s...)
	}
	return out, nil
}

// ecdsaKeys flattens ECDSA keys into one ordered point list.
func ecdsaKeys(pks []PublicKey) ([]ecgroup.Point, error) {
	var out []ecgroup.Point
	for i, pk := range pks {
		ep, ok := pk.(ecdsaPub)
		if !ok {
			return nil, fmt.Errorf("aggsig: key %d is not an ECDSA key", i)
		}
		out = append(out, ep.ps...)
	}
	return out, nil
}

// AggregateKeys lists the keys in order. A repeated key is refused: it
// would make SubtractKeys, which removes keys by equality, ambiguous.
func (ecdsaScheme) AggregateKeys(pks []PublicKey) (PublicKey, error) {
	if len(pks) == 0 {
		return nil, errors.New("aggsig: empty signer set")
	}
	ps, err := ecdsaKeys(pks)
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool, len(ps))
	for i, p := range ps {
		b := string(p.Bytes())
		if seen[b] {
			return nil, fmt.Errorf("aggsig: key %d repeats an earlier key", i)
		}
		seen[b] = true
	}
	return ecdsaPub{ps}, nil
}

// SubtractKeys removes each missing key from the list by equality, keeping
// the order of the rest.
func (ecdsaScheme) SubtractKeys(full PublicKey, missing []PublicKey) (PublicKey, error) {
	fp, ok := full.(ecdsaPub)
	if !ok {
		return nil, errors.New("aggsig: aggregate is not an ECDSA key")
	}
	drop, err := ecdsaKeys(missing)
	if err != nil {
		return nil, err
	}
	ps := slices.Clone(fp.ps)
	for _, d := range drop {
		i := slices.IndexFunc(ps, d.Equal)
		if i < 0 {
			return nil, errors.New("aggsig: subtracted key is not in the aggregate")
		}
		ps = slices.Delete(ps, i, i+1)
	}
	return ecdsaPub{ps}, nil
}

// VerifyWithKey checks signature i of the concatenation against key i of
// the aggregate's ordered list.
func (s ecdsaScheme) VerifyWithKey(apk PublicKey, m Message, aggSig []byte) (bool, error) {
	ep, ok := apk.(ecdsaPub)
	if !ok {
		return false, errors.New("aggsig: aggregate is not an ECDSA key")
	}
	if m.scheme != s.Name() {
		return false, errForeignMessage
	}
	if len(aggSig) != len(ep.ps)*ecdsaSigSize {
		return false, nil
	}
	for i, p := range ep.ps {
		pub, err := p.ECDSAPublic()
		if err != nil {
			return false, err
		}
		raw := aggSig[i*ecdsaSigSize : (i+1)*ecdsaSigSize]
		r := new(big.Int).SetBytes(raw[:32])
		sv := new(big.Int).SetBytes(raw[32:])
		if !ecdsa.Verify(pub, m.digest[:], r, sv) {
			return false, nil
		}
	}
	return true, nil
}

func (s ecdsaScheme) VerifyAggregate(pks []PublicKey, msg, aggSig []byte) (bool, error) {
	apk, err := s.AggregateKeys(pks)
	if err != nil {
		return false, err
	}
	return s.VerifyWithKey(apk, s.HashMessage(msg), aggSig)
}

func (ecdsaScheme) MeterVerify(m *meter.Meter, numSigners int) {
	m.Add(meter.OpECDSAVerify, int64(numSigners))
}

func (ecdsaScheme) MeterSign(m *meter.Meter) {
	m.Add(meter.OpECDSASign, 1)
}

// randReader adapts crypto/rand for ecdsa.Sign without importing it at each
// call site.
type randReader struct{}

func (randReader) Read(p []byte) (int, error) { return readRand(p) }

func readRand(p []byte) (int, error) { return cryptoRand.Read(p) }
