// Package bls implements the BLS12-381 pairing-friendly curve and BLS
// multisignatures with proof-of-possession — the aggregate signature scheme
// the distributed-log protocol uses so that each HSM can check one
// constant-size signature instead of N individual ones (§6.2, [16], [14]).
//
// The implementation is performance-oriented:
//
//   - Fp runs on a fixed 6×uint64 Montgomery representation (fp_limb.go).
//     feMul/feSquare run one no-carry CIOS Montgomery multiplier per
//     host, chosen once at init by CPUID: MULX/ADCX/ADOX assembly
//     (fp_mul_amd64.s) on amd64 CPUs with BMI2 and ADX, squaring as x·x,
//     and unrolled straight-line Go (fp_unrolled.go) elsewhere, with the
//     loop versions kept in the tests as differential oracles. Both end
//     in a select rather than a branch, so public and secret operands
//     share them; so does the one add/sub kernel, feAdd/feSub, whose
//     borrow is a coin flip that no branch predictor learns. math/big
//     never appears in field, curve, or pairing arithmetic, nor under a
//     secret scalar (only in cofactor clearing, one-time constant
//     derivation and test oracles).
//   - feInv is Bernstein–Yang safegcd (fp_inv.go), 1,140 branch-free
//     divsteps for every operand, public or secret; the Fermat power it
//     replaced is its test oracle.
//   - The extension tower Fp2/Fp6/Fp12 (fp2.go, fp6.go, fp12.go) uses
//     Karatsuba multiplication, dedicated squarings (complex squaring in
//     Fp2/Fp12, CH-SQR3 in Fp6), sparse mulByLine/mulBy01 products, and
//     Frobenius maps from coefficients derived at init. On ADX hosts each
//     Fp2 operation is one assembly call (fp_mul_amd64.s), and so are the
//     Fp6 product, the Miller loop's product with a line and the
//     cyclotomic squaring: they add and subtract 768-bit products
//     unreduced and reduce once per output coordinate (the Fp2 multiply
//     2 reductions for 3 products, Fp6 6 for 18, the line 12 for 30).
//   - G1/G2 use Jacobian projective coordinates (curve.go): no per-step
//     inversion in Add or scalar multiplication, plus mixed additions
//     (7M+4S) for affine operands and a dedicated limb squaring
//     (fp_limb.go) under every doubling.
//   - The Miller loop runs on the twist with projective
//     Costello–Lange–Naehrig steps and sparse line multiplications; the
//     final exponentiation is Frobenius-based with cyclotomic squarings
//     (Hayashida–Hayasaka–Teruya hard part). PairingCheck is a true
//     multi-pairing: n pairs cost n Miller loops and one shared final
//     exponentiation.
//   - The loop consumes prepared G2 arguments (pairing.go): prepareG2
//     runs the steps once and keeps the 68 lines, each divided by its
//     v·w coefficient (two Fp2 a line, 13.1 KB); millerLoop only
//     evaluates them, for 10 Fp2 products a line. Pair and PairingCheck
//     prepare on the fly; the G2 generator is prepared once per process
//     and a PublicKey keeps its lines from its first Verify on, so a
//     long-lived key — the roster's quorum key — is verified against
//     with line evaluations and one final exponentiation only.
//   - The HSM's commit check has no final exponentiation (witness.go):
//     the provider proves each aggregate with a residue witness u
//     (ProveMessage), and VerifyMessageWitness folds u into the Miller
//     loop and tests F·u^λ ∈ Fp6* (Novakovic and Eagen, ePrint
//     2024/640). WitnessFromBytes is the strict decoder of the
//     provider's 576 bytes.
//   - The HSM proves the aggregate in G1 without the membership test
//     (hint.go): SignatureFromPreimage accepts σ only if the provider's
//     preimage τ, decoded strictly and checked on E, has
//     clearCofactorG1(τ) = σ — 63 doublings where the test runs 126.
//     The provider proves each epoch's aggregate, a sum of signatures
//     decoded only onto E (SignatureOnCurveFromBytes), by the same check
//     on the τ that Preimage computes, in place of a membership test per
//     signature.
//     VerifyPossession does not keep lines; it has no production caller
//     until the daemon fleet has a trust root, so no registration checks
//     a proof of possession today.
//
// # Scalar multiplication
//
// Every multiplication by a secret scalar is constant-time, and there is
// no variable-time variable-base multiplier left:
//
//   - Secret keys are Scalar values (scalar.go): four fixed 64-bit limbs
//     mod r, sampled exactly as crypto/rand.Int(rng, r) did, so seeded
//     keys are unchanged.
//   - Signing and possession proofs run G1.MulSecret (scalarmul_ct.go), a
//     GLV walk on the cube-root endomorphism φ(x,y) = (βx, y), which acts
//     as λ = z²−1 on the subgroup (glv.go): a branch-free fixed-limb
//     Babai split k ≡ k₁ + k₂·λ with |k₁|, |k₂| ≤ z²/2, a signed 4-bit
//     recoding of 32 digits a half, and one chain of 124 doublings with
//     two table additions a window (tables d·P and d·φ(P), d = 1..8,
//     scanned in full). The file comment proves the walk never meets an
//     exceptional addition.
//   - Key generation (g2_ct.go) walks a lazily built 4-bit window table
//     of the G2 generator in constant time — 64 mixed additions, no
//     doublings. Table memory: 64 windows × 15 affine points, 180 KiB,
//     built on first use with one batched inversion.
//   - Subgroup membership (the hot half of G1FromBytes/G2FromBytes) uses
//     the endomorphism equations instead of a full 255-bit
//     r-multiplication: [z²]φ(P) = −P on G1 and ψ(P) = [z]P on G2
//     (eprint 2022/352, endomorphism.go), each one or two 64-bit |z|
//     multiplications.
//
// Multi-point operations (msm.go) share field inversions: batch
// Jacobian→affine normalization via Montgomery's trick, pairwise
// batch-affine summation trees behind AggregateSignatures and
// AggregatePublicKeys (each round of independent affine additions costs
// one feInv total). Cofactor clearing is a |z| multiplication plus one
// addition (h_eff = |z| + 1); the naive double-and-add (mulRaw), the
// full r-multiplication membership checks and the 4-bit window walk
// MulSecret replaced live in the tests as differential oracles.
//
// # Hashing to G1
//
// Messages are hashed to the curve per RFC 9380 (hash2curve.go): the
// BLS12381G1_XMD:SHA-256_SSWU_RO_ suite — expand_message_xmd, two-element
// hash_to_field, constant-time simplified SWU onto the 11-isogenous curve
// E' (sswu.go), the degree-11 isogeny back to E (isogeny.go), and
// effective-cofactor clearing. No step inverts: SSWU returns x as a
// fraction, the isogeny is evaluated homogenised and returns a Jacobian
// point. HashMessage normalises the result to affine once; SignMessage
// and VerifyMessage reuse it, which is how an HSM hashes each epoch
// header once. The HSM's hash runs with the provider's hint
// (HashMessageHinted, hint.go): the two square roots and the affine
// point are checked, not computed. The hash layer is branch-free on the data
// being hashed: selections are CMOV, negations are masked, exponentiations
// use public exponents. It is the only hash: the seed's pre-standard
// try-and-increment hash is gone, and seed_compat_test.go pins that the
// seed's signatures no longer verify.
//
// Key and point encodings are identical to the original math/big
// simulator implementation, which is retained in legacy_test.go as a
// differential oracle; see seed_compat_test.go for the pinned
// cross-version vectors. The multiply, square, add, subtract and invert
// kernels do not branch on limb data, so secret operands need no kernels
// of their own; the full constant-time audit is tracked in ROADMAP.md.
package bls
