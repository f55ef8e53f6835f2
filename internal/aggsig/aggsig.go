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

// ProveHash hashes msg as HashMessage does and returns the encoded hint
// with which HashMessageHinted repeats the hash without a square root or
// an inversion (bls.ProveHash). The provider computes it once per epoch
// header.
func ProveHash(msg []byte) (Message, []byte) {
	m, hint := bls.ProveHash(msg)
	return m, hint.Bytes()
}

// HashMessageHinted hashes msg with the provider's encoded hint, decoded
// strictly (bls.HashHintFromBytes): HashMessage(msg), or an error when
// the hint does not verify. It is the HSM's hash of an epoch header.
func HashMessageHinted(msg, hint []byte) (Message, error) {
	h, err := bls.HashHintFromBytes(hint)
	if err != nil {
		return Message{}, err
	}
	return bls.HashMessageHinted(msg, h)
}

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

// Signature is a decoded signature: ParseSignature has checked its
// encoding and its curve equation, not its membership in G1.
// AggregateParsed proves the sum in G1 once, so the provider's audit
// fan-out only decodes.
type Signature = *signature

type signature struct{ s *bls.Signature }

// ParseSignature decodes a signature strictly: 97 bytes tagged 0x04,
// coordinates below p, on E (bls.SignatureOnCurveFromBytes). The curve
// test stays on every summand: the group law never reads the curve
// constant, so one summand on another curve would put the sum on no
// curve, where AggregateParsed's proof means nothing. The identity is
// refused: summed in, it would list its signer in a quorum whose key the
// aggregate cannot verify under.
func ParseSignature(b []byte) (Signature, error) {
	s, err := bls.SignatureOnCurveFromBytes(b)
	if err != nil {
		return nil, err
	}
	return &signature{s}, nil
}

// AggregateParsed sums decoded signatures produced over the same message
// and proves the sum in G1 with its cofactor preimage: the pair passes
// the HSMs' commit check (bls.SignatureFromPreimage), which for a point
// of E holds exactly when it is in G1 and not the identity. If it fails,
// some summand is outside G1: every summand then takes the membership
// test, those that fail are left out and listed in outside (ascending
// indices into sigs), and the rest are summed and proved again.
// Summands whose torsion parts cancel give a sum in G1 and pass; only the
// sum is verified, against the quorum key. A sum of G1 points that is
// the identity is an error.
func AggregateParsed(sigs []Signature) (agg, preimage []byte, outside []int, err error) {
	parsed := make([]*bls.Signature, len(sigs))
	for i, s := range sigs {
		if s == nil {
			return nil, nil, nil, fmt.Errorf("aggsig: nil signature at %d", i)
		}
		parsed[i] = s.s
	}
	if agg, preimage, err = proveSum(parsed); err == nil {
		return agg, preimage, nil, nil
	}
	var members []*bls.Signature
	for i, s := range parsed {
		if s.InSubgroup() {
			members = append(members, s)
		} else {
			outside = append(outside, i)
		}
	}
	if len(outside) == 0 {
		return nil, nil, nil, err
	}
	if len(members) == 0 {
		return nil, nil, outside, errors.New("aggsig: no signature in G1")
	}
	if agg, preimage, err = proveSum(members); err != nil {
		return nil, nil, outside, err
	}
	return agg, preimage, outside, nil
}

// proveSum sums sigs and proves the sum in G1 (proveInG1).
func proveSum(sigs []*bls.Signature) (agg, preimage []byte, err error) {
	sum, err := bls.AggregateSignatures(sigs)
	if err != nil {
		return nil, nil, err
	}
	agg = sum.Bytes()
	if preimage, err = proveInG1(sum, agg); err != nil {
		return nil, nil, err
	}
	return agg, preimage, nil
}

// proveInG1 returns the cofactor preimage of sig, a point of E encoded as
// enc, once the HSMs' commit check accepts the pair: the aggregate's one
// membership proof.
func proveInG1(sig *bls.Signature, enc []byte) ([]byte, error) {
	preimage := sig.Preimage()
	if _, err := bls.SignatureFromPreimage(enc, preimage); err != nil {
		return nil, fmt.Errorf("aggsig: aggregate not in G1: %w", err)
	}
	return preimage, nil
}

// Aggregate combines encoded signatures produced over the same message:
// ParseSignature on each, then AggregateParsed. A signature outside G1 is
// refused like one that does not decode.
func Aggregate(sigs [][]byte) ([]byte, error) {
	parsed := make([]Signature, len(sigs))
	for i, raw := range sigs {
		s, err := ParseSignature(raw)
		if err != nil {
			return nil, fmt.Errorf("aggsig: signature %d: %w", i, err)
		}
		parsed[i] = s
	}
	agg, _, outside, err := AggregateParsed(parsed)
	if err != nil {
		return nil, err
	}
	if len(outside) > 0 {
		return nil, fmt.Errorf("aggsig: signature %d: not in G1", outside[0])
	}
	return agg, nil
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
// aggregate key with the final exponentiation.
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

// ProveWithKey computes the provider's proof for aggSig over m against
// apk: the cofactor preimage with which an HSM decodes the aggregate
// without a membership test, proving it in G1 (AggregateParsed's check),
// and the residue witness (ProveWitness). It is the proof of an aggregate
// that comes without its preimage, such as one rebuilt from the journal.
func ProveWithKey(apk PublicKey, m Message, aggSig []byte) (witness, preimage []byte, err error) {
	sig, err := bls.SignatureOnCurveFromBytes(aggSig)
	if err != nil {
		return nil, nil, err
	}
	if preimage, err = proveInG1(sig, aggSig); err != nil {
		return nil, nil, err
	}
	if witness, err = ProveWitness(apk, m, aggSig); err != nil {
		return nil, nil, err
	}
	return witness, preimage, nil
}

// ProveWitness computes the residue witness an HSM needs to check aggSig
// over m against apk without a final exponentiation
// (bls.PublicKey.ProveMessage). It decodes the aggregate only onto E:
// AggregateParsed or ProveWithKey proves it in G1, and a witness for a
// point outside G1 fails the HSM's check like any other.
func ProveWitness(apk PublicKey, m Message, aggSig []byte) ([]byte, error) {
	if apk == nil {
		return nil, errors.New("aggsig: nil aggregate")
	}
	sig, err := bls.SignatureOnCurveFromBytes(aggSig)
	if err != nil {
		return nil, err
	}
	w, err := apk.pk.ProveMessage(m, sig)
	if err != nil {
		return nil, err
	}
	return w.Bytes(), nil
}

// VerifyWithWitness checks aggSig over m against apk with the provider's
// residue witness and cofactor preimage, each decoded strictly
// (bls.WitnessFromBytes, bls.SignatureFromPreimage): the HSM's commit
// check.
func VerifyWithWitness(apk PublicKey, m Message, aggSig, witness, preimage []byte) (bool, error) {
	if apk == nil {
		return false, errors.New("aggsig: nil aggregate")
	}
	sig, err := bls.SignatureFromPreimage(aggSig, preimage)
	if err != nil {
		return false, err
	}
	w, err := bls.WitnessFromBytes(witness)
	if err != nil {
		return false, err
	}
	return apk.pk.VerifyMessageWitness(m, sig, w)
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
