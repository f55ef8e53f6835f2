package bls

// hash2curve.go implements RFC 9380 hash-to-curve for G1 — the suite
// BLS12381G1_XMD:SHA-256_SSWU_RO_ — the package's only message hash.
//
// The RFC pipeline is
//
//	u[0], u[1] = hash_to_field(msg, 2)        (expand_message_xmd, SHA-256)
//	Q0 = iso_map(map_to_curve_simple_swu(u[0]))
//	Q1 = iso_map(map_to_curve_simple_swu(u[1]))
//	P  = clear_cofactor(Q0 + Q1)
//
// where map_to_curve_simple_swu lands on the 11-isogenous curve E' (sswu.go)
// and iso_map is the degree-11 rational map back to E (isogeny.go). Every
// step executes the same instruction sequence for every input:
// field-element selection is CMOV-based, negation is masked, and there is
// no rejection loop, so the hash runs in time independent of the message
// being hashed.
//
// No step inverts: SSWU hands its x to the isogeny as a fraction and the
// isogeny returns a Jacobian point, so a hash costs two square roots (the
// only exponentiations, each one fixed addition chain for the public
// exponent (p−3)/4, 457 products: fp_limb.go), ≈ 300 multiplications and
// the cofactor clearing (63 doublings and 6 additions). On a 2-vCPU Xeon
// host the whole hash read 82 µs, and BenchmarkSqrtRatio3mod4 one square
// root 23–27 µs. A signer normalises the result to affine once
// (HashMessage in hint.go). An HSM hashing an epoch header takes both
// roots and the affine result from the provider's hint and checks them
// (HashMessageHinted): no exponentiation and no inversion.
//
// After the maps, the group law branches on the hashed data only at
// events of negligible probability: the Jacobian Add of Q0 + Q1 and the
// doublings and additions inside cofactor clearing leave their formulas
// only for the identity or for two points that share an x.

import "crypto/sha256"

// HashMode names the message-to-G1 hash. RFC 9380 is the only one; the
// type and HashToG1's mode argument stay because the benchmark harness
// calls HashToG1(HashRFC9380, …).
type HashMode uint8

// HashRFC9380 is hash_to_curve from RFC 9380 with the suite
// BLS12381G1_XMD:SHA-256_SSWU_RO_.
const HashRFC9380 HashMode = 0

// SuiteG1 is the RFC 9380 suite ID implemented by HashToG1; callers
// building domain-separation tags should include it, per RFC 9380 §3.1.
const SuiteG1 = "BLS12381G1_XMD:SHA-256_SSWU_RO_"

// HashToG1 maps a message onto the order-r subgroup of G1 with the RFC
// 9380 hash, using dst verbatim as the DST. The mode is ignored.
func HashToG1(_ HashMode, dst string, msg []byte) G1 {
	return hashToG1RFC(dst, msg)
}

// hashToG1RFC is hash_to_curve for BLS12381G1_XMD:SHA-256_SSWU_RO_.
func hashToG1RFC(dst string, msg []byte) G1 {
	p, _, _ := hashToG1(dst, msg, nil)
	return p
}

// hashToG1 is the one body of the hash. With roots nil it computes both
// SSWU square roots; otherwise it checks the two claimed ones instead
// (mapToCurveSSWU), and ok = 0 if either is no root. used returns the
// roots the maps took: the prover's hint.
func hashToG1(dst string, msg []byte, roots *[2]fe) (p G1, used [2]fe, ok uint64) {
	var u [2]fe
	hashToFieldFp(u[:], msg, dst)
	var r0, r1 *fe
	if roots != nil {
		r0, r1 = &roots[0], &roots[1]
	}
	xn0, xd0, y0, s0, ok0 := mapToCurveSSWU(&u[0], r0)
	xn1, xd1, y1, s1, ok1 := mapToCurveSSWU(&u[1], r1)
	q0 := isoMapG1(&xn0, &xd0, &y0)
	return clearCofactorG1(q0.Add(isoMapG1(&xn1, &xd1, &y1))), [2]fe{s0, s1}, ok0 & ok1
}

// clearCofactorG1 sends any point of E(Fp) into the order-r subgroup: it
// multiplies by the RFC 9380 §8.8.1 effective cofactor h_eff = 1 − z =
// |z| + 1 = 0xd201000000010001 (z the BLS12-381 parameter), which clears
// the G1 torsion at a fraction of the cost of the full cofactor h, as
// |z|·p + p.
func clearCofactorG1(p G1) G1 { return p.mulZAbs().Add(p) }

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
