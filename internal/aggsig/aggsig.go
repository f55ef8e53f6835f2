package aggsig

import (
	"errors"
	"fmt"
	"io"

	"safetypin/internal/bls"
)

// Name identifies the scheme on the wire (transport.FleetConfig.SchemeName).
const Name = "bls12381-multisig"

// Scheme is a handle on the BLS multisignature scheme. It holds no state:
// a nil Scheme works like BLS(), and every operation is also a package
// function. The handle remains for callers that pass a scheme value
// around (safetypin.Params.Scheme).
type Scheme = *scheme

type scheme struct{}

// BLS returns the BLS12-381 multisignature scheme, hashing messages with
// RFC 9380 (constant-time SSWU).
func BLS() Scheme { return &scheme{} }

// Aggregate is the package function Aggregate.
func (*scheme) Aggregate(sigs [][]byte) ([]byte, error) { return Aggregate(sigs) }

// VerifyAggregate is the package function VerifyAggregate.
func (*scheme) VerifyAggregate(pks []PublicKey, msg, aggSig []byte) (bool, error) {
	return VerifyAggregate(pks, msg, aggSig)
}

// Signer is the HSM-side signing handle.
type Signer = *signer

type signer struct {
	sk *bls.SecretKey //spin:secret
	pk *bls.PublicKey
}

// PublicKey is a verification key: one signer's, or an aggregate from
// AggregateKeys, SubtractKeys or RosterCache.
type PublicKey = *publicKey

type publicKey struct{ pk *bls.PublicKey }

// Message is a message hashed onto G1. An HSM hashes an epoch header once,
// signs it, and verifies the aggregate over it later from the same
// Message.
type Message = bls.Message

// pubVersion prefixes the wire encoding of public keys: version 1 is the
// IETF/zcash 96-byte compressed G2 format. It is the only accepted
// encoding.
const pubVersion = 0x01

// KeyGen creates a signer.
func KeyGen(rng io.Reader) (Signer, error) {
	sk, pk, err := bls.GenerateKey(rng)
	if err != nil {
		return nil, err
	}
	return &signer{sk: sk, pk: pk}, nil
}

// KeyGenBatch creates n signers with one shared batch inversion across all
// the public-key affine conversions (bls.GenerateKeyBatch); every secret
// scalar still runs the constant-time comb individually. Fleet
// provisioning generates every HSM's roster identity through it. The
// scheme argument is the stateless handle and may be nil.
func KeyGenBatch(_ Scheme, rng io.Reader, n int) ([]Signer, error) {
	sks, pks, err := bls.GenerateKeyBatch(rng, n)
	if err != nil {
		return nil, err
	}
	out := make([]Signer, n)
	for i := range out {
		out[i] = &signer{sk: sks[i], pk: pks[i]}
	}
	return out, nil
}

// HashMessage hashes msg onto G1 for SignMessage and VerifyWithKey.
func HashMessage(msg []byte) Message { return bls.HashMessage(msg) }

// Sign signs msg; it is SignMessage(HashMessage(msg)).
func (s *signer) Sign(msg []byte) ([]byte, error) {
	return s.SignMessage(HashMessage(msg))
}

// SignMessage signs a hashed message.
func (s *signer) SignMessage(m Message) ([]byte, error) {
	return s.sk.SignMessage(m).Bytes(), nil
}

// PublicKey returns the signer's verification key.
func (s *signer) PublicKey() PublicKey { return &publicKey{s.pk} }

// Bytes is the version-1 wire encoding.
func (p *publicKey) Bytes() []byte {
	return append([]byte{pubVersion}, p.pk.BytesCompressed()...)
}

// ParsePublicKey accepts only the version-1 compressed key, and refuses
// the identity (bls.PublicKeyFromCompressedBytes): in a roster it would
// add nothing to a quorum key, so a provider could list its index as a
// signer that never signed.
func ParsePublicKey(b []byte) (PublicKey, error) {
	if len(b) != 1+bls.G2CompressedSize || b[0] != pubVersion {
		return nil, fmt.Errorf("aggsig: unrecognized BLS public key encoding (%d bytes)", len(b))
	}
	pk, err := bls.PublicKeyFromCompressedBytes(b[1:])
	if err != nil {
		return nil, err
	}
	return &publicKey{pk}, nil
}

// Aggregate combines signatures produced over the same message.
func Aggregate(sigs [][]byte) ([]byte, error) {
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

// blsKeys unwraps keys to the underlying BLS keys.
func blsKeys(pks []PublicKey) ([]*bls.PublicKey, error) {
	keys := make([]*bls.PublicKey, len(pks))
	for i, pk := range pks {
		if pk == nil {
			return nil, fmt.Errorf("aggsig: nil key at %d", i)
		}
		keys[i] = pk.pk
	}
	return keys, nil
}

// AggregateKeys sums the signer keys into one verification key through the
// batch-affine summation tree (bls.AggregatePublicKeys). A key equal to an
// earlier one is refused: summed twice, it would let one signer's
// signature, aggregated twice, count as two members of a quorum.
func AggregateKeys(pks []PublicKey) (PublicKey, error) {
	if len(pks) == 0 {
		return nil, errors.New("aggsig: empty signer set")
	}
	keys, err := blsKeys(pks)
	if err != nil {
		return nil, err
	}
	apk, err := bls.AggregatePublicKeys(keys)
	if err != nil {
		return nil, err
	}
	return &publicKey{apk}, nil
}

// SubtractKeys removes missing signers from a full aggregate: O(missing)
// G2 additions against AggregateKeys' O(n) summation, and exactly the key
// AggregateKeys produces over the remaining keys (byte-identical
// serialization).
func SubtractKeys(full PublicKey, missing []PublicKey) (PublicKey, error) {
	if full == nil {
		return nil, errors.New("aggsig: nil aggregate")
	}
	keys, err := blsKeys(missing)
	if err != nil {
		return nil, err
	}
	apk, err := bls.SubtractPublicKeys(full.pk, keys)
	if err != nil {
		return nil, err
	}
	return &publicKey{apk}, nil
}

// VerifyWithKey checks aggSig over the hashed message m against an
// aggregate key — the cached-quorum-key path of RosterCache.
func VerifyWithKey(apk PublicKey, m Message, aggSig []byte) (bool, error) {
	if apk == nil {
		return false, errors.New("aggsig: nil aggregate")
	}
	sig, err := bls.SignatureFromBytes(aggSig)
	if err != nil {
		return false, err
	}
	return apk.pk.VerifyMessage(m, sig)
}

// VerifyAggregate checks the aggregate signature over msg against the
// signer set: VerifyWithKey(AggregateKeys(pks), HashMessage(msg), aggSig).
func VerifyAggregate(pks []PublicKey, msg, aggSig []byte) (bool, error) {
	apk, err := AggregateKeys(pks)
	if err != nil {
		return false, err
	}
	return VerifyWithKey(apk, HashMessage(msg), aggSig)
}
