package bls

// hash2curve.go implements RFC 9380 hash-to-curve for G1 — the suite
// BLS12381G1_XMD:SHA-256_SSWU_RO_ — and the HashMode switch that keeps the
// pre-standard try-and-increment hash available for wire compatibility.
//
// The RFC pipeline is
//
//	u[0], u[1] = hash_to_field(msg, 2)        (expand_message_xmd, SHA-256)
//	Q0 = iso_map(map_to_curve_simple_swu(u[0]))
//	Q1 = iso_map(map_to_curve_simple_swu(u[1]))
//	P  = clear_cofactor(Q0 + Q1)
//
// where map_to_curve_simple_swu lands on the 11-isogenous curve E' (sswu.go)
// and iso_map is the degree-11 rational map back to E (isogeny.go). Unlike
// try-and-increment, every step executes the same instruction sequence for
// every input: field-element selection is CMOV-based, negation is masked,
// and there is no rejection loop, so the hash runs in time independent of
// the message being hashed.
//
// No step inverts: SSWU hands its x to the isogeny as a fraction and the
// isogeny returns a Jacobian point, so a hash costs two square roots (the
// only exponentiations), ≈ 300 multiplications and the cofactor clearing.
// A signer normalises the result to affine once (HashMessage in bls.go).
//
// The residual caveats, tracked in ROADMAP.md's constant-time audit item:
// feExp runs public-exponent square-and-multiply (constant time with
// respect to the *base*, which is all that is required here), and the final
// Jacobian Add of Q0+Q1 takes its exceptional branches only on the
// negligible-probability event Q0 = ±Q1.

import (
	"crypto/sha256"
	"fmt"
	"math/big"
)

// HashMode selects the message-to-G1 hash construction. The zero value is
// the RFC 9380 standard hash; deployments with logs signed by pre-RFC
// binaries pin HashLegacy until the fleet is migrated.
type HashMode uint8

const (
	// HashRFC9380 is hash_to_curve from RFC 9380 with the suite
	// BLS12381G1_XMD:SHA-256_SSWU_RO_: constant-time simplified SWU onto
	// an 11-isogenous curve plus the isogeny map back. The default.
	HashRFC9380 HashMode = iota
	// HashLegacy is the pre-standard try-and-increment hash this repo
	// shipped with: variable-time, non-standard, but byte-identical to
	// every signature in logs written by existing deployments.
	HashLegacy
)

// Mode names as they appear on daemon flags and in the fleet-config wire
// handshake.
const (
	hashModeRFCName    = "rfc9380"
	hashModeLegacyName = "legacy"
)

// String returns the wire/flag name of the mode.
func (m HashMode) String() string {
	switch m {
	case HashRFC9380:
		return hashModeRFCName
	case HashLegacy:
		return hashModeLegacyName
	default:
		return fmt.Sprintf("hashmode(%d)", uint8(m))
	}
}

// ParseHashMode maps a wire/flag name to a HashMode. The empty string is
// accepted as HashLegacy: a fleet config that predates the RFC hash comes
// from a deployment whose every signature used try-and-increment, so the
// absent field must negotiate the hash those peers actually speak.
func ParseHashMode(s string) (HashMode, error) {
	switch s {
	case hashModeRFCName:
		return HashRFC9380, nil
	case "", hashModeLegacyName:
		return HashLegacy, nil
	default:
		return 0, fmt.Errorf("bls: unknown hash mode %q (want %q or %q)", s, hashModeRFCName, hashModeLegacyName)
	}
}

// SuiteG1 is the RFC 9380 suite ID implemented by HashRFC9380; callers
// building domain-separation tags should include it, per RFC 9380 §3.1.
const SuiteG1 = "BLS12381G1_XMD:SHA-256_SSWU_RO_"

// HashToG1 maps a message (under a domain-separation tag) onto the order-r
// subgroup of G1 using the selected construction. In RFC mode the domain
// string is used verbatim as the RFC 9380 DST; in legacy mode it feeds the
// seed implementation's ad-hoc domain framing.
func HashToG1(mode HashMode, domain string, msg []byte) G1 {
	if mode == HashLegacy {
		return hashToG1Legacy(domain, msg)
	}
	return hashToG1RFC(domain, msg)
}

// hashToG1RFC is hash_to_curve for BLS12381G1_XMD:SHA-256_SSWU_RO_.
func hashToG1RFC(dst string, msg []byte) G1 {
	var u [2]fe
	hashToFieldFp(u[:], msg, dst)
	xn0, xd0, y0 := mapToCurveSSWU(&u[0])
	xn1, xd1, y1 := mapToCurveSSWU(&u[1])
	q0 := isoMapG1(&xn0, &xd0, &y0)
	return clearCofactorG1(q0.Add(isoMapG1(&xn1, &xd1, &y1)))
}

// g1HEff is the RFC 9380 §8.8.1 effective cofactor 1 − z (z the BLS12-381
// parameter): multiplying by it clears the G1 torsion at a fraction of the
// cost of the full cofactor h.
var g1HEff = new(big.Int).SetUint64(0xd201000000010001)

// clearCofactorG1 sends any point of E(Fp) into the order-r subgroup.
func clearCofactorG1(p G1) G1 { return p.mulRaw(g1HEff) }

// --- RFC 9380 §5.2 hash_to_field and §5.3.1 expand_message_xmd ---

// l2cBytes is L = ceil((ceil(log2(p)) + k) / 8) for p 381-bit and k = 128:
// each field element is derived from 64 uniform bytes so the bias from the
// mod-p reduction is ≤ 2^-128.
const l2cBytes = 64

// hashToFieldFp fills out with len(out) field elements derived from msg
// under dst (hash_to_field with m = 1).
func hashToFieldFp(out []fe, msg []byte, dst string) {
	uniform := expandMessageXMD(msg, dst, len(out)*l2cBytes)
	for i := range out {
		feReduceWide(&out[i], uniform[i*l2cBytes:(i+1)*l2cBytes])
	}
}

// sha256Block is the input block size r_in_bytes of the expander hash.
const sha256Block = 64

// expandMessageXMD is expand_message_xmd with SHA-256 (RFC 9380 §5.3.1):
// a domain-separated, length-bound expansion of msg to lenInBytes uniform
// bytes. DSTs longer than 255 bytes are replaced by their tagged hash per
// §5.3.3. lenInBytes is bounded by the RFC's 255-block limit; this package
// only asks for 128 bytes.
func expandMessageXMD(msg []byte, dst string, lenInBytes int) []byte {
	dstBytes := []byte(dst)
	if len(dstBytes) > 255 {
		h := sha256.New()
		h.Write([]byte("H2C-OVERSIZE-DST-"))
		h.Write(dstBytes)
		dstBytes = h.Sum(nil)
	}
	ell := (lenInBytes + sha256.Size - 1) / sha256.Size
	if lenInBytes <= 0 || lenInBytes > 65535 || ell > 255 {
		panic("bls: expand_message_xmd length out of range")
	}
	dstPrime := append(dstBytes, byte(len(dstBytes)))

	// b_0 = H(Z_pad || msg || l_i_b_str || 0x00 || DST_prime)
	h := sha256.New()
	var zPad [sha256Block]byte
	h.Write(zPad[:])
	h.Write(msg)
	h.Write([]byte{byte(lenInBytes >> 8), byte(lenInBytes), 0})
	h.Write(dstPrime)
	b0 := h.Sum(nil)

	// b_1 = H(b_0 || 0x01 || DST_prime)
	h.Reset()
	h.Write(b0)
	h.Write([]byte{1})
	h.Write(dstPrime)
	bi := h.Sum(nil)

	out := make([]byte, 0, ell*sha256.Size)
	out = append(out, bi...)
	for i := 2; i <= ell; i++ {
		// b_i = H(strxor(b_0, b_{i-1}) || i || DST_prime)
		var x [sha256.Size]byte
		for j := range x {
			x[j] = b0[j] ^ bi[j]
		}
		h.Reset()
		h.Write(x[:])
		h.Write([]byte{byte(i)})
		h.Write(dstPrime)
		bi = h.Sum(nil)
		out = append(out, bi...)
	}
	return out[:lenInBytes]
}
