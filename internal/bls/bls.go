package bls

import (
	"errors"
	"fmt"
	"io"
	"sync"
)

// BLS multisignatures with public-key aggregation [14]: signatures are G1
// points, public keys are G2 points. All HSMs sign the same message (the
// log-update tuple), the service provider adds the signatures together, and
// every HSM verifies the single aggregate against the sum of the public
// keys. Proofs of possession are what prevent rogue-key attacks, but no
// production path checks them yet: VerifyPossession waits for a trust
// root for the daemon fleet, and until then a registered key is not
// proven.

// Domain-separation tags: RFC 9380 DSTs, including the suite ID per §3.1.
const (
	sigDomain = "safetypin/bls/sig/v2/" + SuiteG1
	popDomain = "safetypin/bls/pop/v2/" + SuiteG1
)

// SecretKey is a BLS signing key.
type SecretKey struct {
	s Scalar //spin:secret
}

// PublicKey is a BLS verification key. Verify prepares the key's
// Miller-loop lines (prepareG2: 68 lines of two Fp2, 13,056 bytes) on
// first use and keeps them, so a long-lived key — the roster's quorum
// key — pays for line evaluations only from its second verification on.
// Keys are handled by pointer; the cache makes the struct non-copyable.
type PublicKey struct {
	p G2

	prepOnce sync.Once
	prep     *g2Prepared
}

// prepared returns the key's Miller-loop lines, computing them once.
func (pk *PublicKey) prepared() *g2Prepared {
	pk.prepOnce.Do(func() { pk.prep = prepareG2(pk.p) })
	return pk.prep
}

// verifyPrepared checks e(σ, G2) == e(h, pk) for the prepared lines of pk:
// e(−σ, G2)·e(h, pk) == 1, two line-evaluation loops sharing one final
// exponentiation.
func verifyPrepared(sig, h G1, pk *g2Prepared) bool {
	out := pairingProduct([]G1{sig.Neg(), h}, []*g2Prepared{g2GeneratorPrepared(), pk})
	return out.isOne()
}

// Signature is a BLS signature (or aggregate of signatures).
type Signature struct {
	p G1
}

// GenerateKey samples a keypair from rng.
func GenerateKey(rng io.Reader) (*SecretKey, *PublicKey, error) {
	s, err := sampleScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	// Constant-time fixed-base comb (g2_ct.go): no doublings, no
	// scalar-dependent branch or memory access.
	return &SecretKey{s: s}, &PublicKey{p: G2MulGenSecret(&s)}, nil
}

// GenerateKeyBatch samples n keypairs at once: every secret scalar runs
// the constant-time comb individually, but the resulting public keys are
// converted to affine with ONE shared Montgomery batch inversion
// (g2NormalizeBatch) instead of n per-point inversions at serialization
// time — the fleet-provisioning path, where n is the fleet size.
func GenerateKeyBatch(rng io.Reader, n int) ([]*SecretKey, []*PublicKey, error) {
	if n < 0 {
		return nil, nil, fmt.Errorf("bls: negative batch size %d", n)
	}
	sks := make([]*SecretKey, n)
	ps := make([]G2, n)
	for i := range sks {
		s, err := sampleScalar(rng)
		if err != nil {
			return nil, nil, err
		}
		sks[i] = &SecretKey{s: s}
		ps[i] = G2MulGenSecret(&s)
	}
	g2NormalizeBatch(ps)
	pks := make([]*PublicKey, n)
	for i := range pks {
		pks[i] = &PublicKey{p: ps[i]}
	}
	return sks, pks, nil
}

// Message is a message hashed onto G1 under the signature domain,
// normalised to affine. HashMessage pays for the hash and its one
// inversion; every SignMessage and VerifyMessage after that reuses them —
// an HSM signs an epoch header and later verifies the aggregate over the
// same header, so it hashes once per epoch.
type Message struct{ h G1 }

// SignMessage signs a hashed message. The hashed point is public; the
// scalar is the long-lived signing key, multiplied in by the
// constant-time GLV walk (scalarmul_ct.go).
func (sk *SecretKey) SignMessage(m Message) *Signature {
	return &Signature{p: m.h.MulSecret(&sk.s)}
}

// VerifyMessage checks a (possibly aggregate) signature on a hashed
// message under pk (possibly an aggregate public key).
func (pk *PublicKey) VerifyMessage(m Message, sig *Signature) (bool, error) {
	if sig == nil || sig.p.IsInfinity() || pk.p.IsInfinity() {
		return false, nil
	}
	return verifyPrepared(sig.p, m.h, pk.prepared()), nil
}

// ProvePossession returns a proof of possession for the keypair, which a
// registrar is to verify to block rogue-key aggregation attacks.
//
//spin:testhook open item: A trust root for the daemon fleet
func (sk *SecretKey) ProvePossession(pk *PublicKey) *Signature {
	return &Signature{p: hashToG1RFC(popDomain, pk.Bytes()).MulSecret(&sk.s)}
}

// VerifyPossession checks a proof of possession for pk.
//
//spin:testhook open item: A trust root for the daemon fleet
func VerifyPossession(pk *PublicKey, pop *Signature) (bool, error) {
	if pop == nil || pop.p.IsInfinity() || pk.p.IsInfinity() {
		return false, nil
	}
	// No production path calls this yet (see the testhook above). It is
	// meant to run once per key, so the lines are prepared for this call
	// and not kept (a roster of n keys would otherwise retain n × 13.1 KB).
	return verifyPrepared(pop.p, hashToG1RFC(popDomain, pk.Bytes()), prepareG2(pk.p)), nil
}

// AggregateSignatures sums signatures on the same message into one, via
// the batch-affine summation tree (msm.go): each round of pairwise
// additions shares a single field inversion.
func AggregateSignatures(sigs []*Signature) (*Signature, error) {
	if len(sigs) == 0 {
		return nil, errors.New("bls: nothing to aggregate")
	}
	ps := make([]G1, len(sigs))
	for i, s := range sigs {
		if s == nil {
			return nil, fmt.Errorf("bls: nil signature at %d", i)
		}
		ps[i] = s.p
	}
	return &Signature{p: g1Sum(ps)}, nil
}

// AggregatePublicKeys sums public keys into the aggregate verification
// key, via the batch-affine summation tree (msm.go) — the per-epoch roster
// aggregation that used to be a chain of full Jacobian additions. A key
// equal to an earlier one is refused: summed twice, it would let one
// signer's signature, aggregated twice, verify as two signers'. The check
// compares the affine coordinates the summation needs anyway.
func AggregatePublicKeys(pks []*PublicKey) (*PublicKey, error) {
	if len(pks) == 0 {
		return nil, errors.New("bls: nothing to aggregate")
	}
	ps := make([]G2, len(pks))
	for i, pk := range pks {
		if pk == nil {
			return nil, fmt.Errorf("bls: nil public key at %d", i)
		}
		ps[i] = pk.p
	}
	xs, ys := g2AffineCoords(ps)
	seen := make(map[affineKey]struct{}, len(xs))
	for i := range xs {
		k := affineKey{xs[i], ys[i].c0[0], ys[i].c1[0]}
		if _, ok := seen[k]; ok {
			return nil, errors.New("bls: public key repeats an earlier key")
		}
		seen[k] = struct{}{}
	}
	return &PublicKey{p: g2SumAffine(xs, ys)}, nil
}

// SubtractPublicKeys returns agg − (missing₀ + … + missingₙ₋₁): the
// incremental path for per-epoch quorum keys. Epoch commits carry
// near-complete signer sets, so subtracting the few absent signers from a
// cached full-roster aggregate costs O(missing) group operations where
// re-aggregating the quorum from scratch costs an O(n) MSM. The result is
// the exact group element the full aggregation would produce (point
// addition is exact), so serializations are byte-identical — asserted by
// the differential tests in aggsig.
func SubtractPublicKeys(agg *PublicKey, missing []*PublicKey) (*PublicKey, error) {
	if agg == nil {
		return nil, errors.New("bls: nil aggregate")
	}
	if len(missing) == 0 {
		return &PublicKey{p: agg.p}, nil
	}
	ps := make([]G2, len(missing))
	for i, pk := range missing {
		if pk == nil {
			return nil, fmt.Errorf("bls: nil public key at %d", i)
		}
		ps[i] = pk.p
	}
	return &PublicKey{p: agg.p.Add(g2Sum(ps).Neg())}, nil
}

// Bytes serializes the public key in the legacy uncompressed format (the
// proof-of-possession domain hashes this encoding, so it is frozen).
func (pk *PublicKey) Bytes() []byte { return pk.p.Bytes() }

// BytesCompressed serializes the public key in the IETF/zcash 96-byte
// compressed format — the wire encoding for rosters.
func (pk *PublicKey) BytesCompressed() []byte { return pk.p.BytesCompressed() }

// PublicKeyFromCompressedBytes decodes and validates a compressed public
// key. The identity is refused: no key generation produces it, and in a
// roster it would let a quorum count a signer that contributed nothing.
func PublicKeyFromCompressedBytes(b []byte) (*PublicKey, error) {
	p, err := G2FromCompressedBytes(b)
	if err != nil {
		return nil, err
	}
	if p.IsInfinity() {
		return nil, errors.New("bls: public key is the identity")
	}
	return &PublicKey{p: p}, nil
}

// Bytes serializes the signature.
func (s *Signature) Bytes() []byte { return s.p.Bytes() }

// SignatureFromBytes decodes and validates a signature.
func SignatureFromBytes(b []byte) (*Signature, error) {
	p, err := G1FromBytes(b)
	if err != nil {
		return nil, err
	}
	return &Signature{p: p}, nil
}

// SignatureOnCurveFromBytes decodes a signature strictly and checks it on
// E, not in G1: exactly G1Size bytes tagged 0x04 (the identity is
// refused), both coordinates below p, and y² = x³ + 4. A sum of such
// signatures is proved in G1 once, by SignatureFromPreimage on its
// Preimage; InSubgroup is the membership test of one signature.
func SignatureOnCurveFromBytes(b []byte) (*Signature, error) {
	p, err := g1DecodeUncompressed(b)
	if err != nil {
		return nil, err
	}
	if p.IsInfinity() {
		return nil, errors.New("bls: signature is the identity")
	}
	if !p.OnCurve() {
		return nil, errors.New("bls: signature is not on the curve")
	}
	return &Signature{p: p}, nil
}

// InSubgroup reports whether the signature lies on E and in G1: the full
// membership test.
func (s *Signature) InSubgroup() bool { return s.p.InSubgroup() }

// affineKey identifies an affine G2 point by x and the low limbs of y, a
// map key small enough to be stored inline. Only (x, y) and (x, −y) share
// an x, and they differ in the low limb of whichever component of y is
// nonzero: the low limb of p − c is p₀ − c₀ mod 2⁶⁴, which cannot equal
// c₀ because p₀ is odd.
type affineKey struct {
	x      fe2
	y0, y1 uint64
}
