package bls

// glv.go holds the Gallant–Lambert–Vanstone machinery on G1. The
// cube-root endomorphism φ(x, y) = (β·x, y), β a primitive cube root of
// unity in Fp, acts on the order-r subgroup as multiplication by
// λ = z² − 1 (z the curve parameter), because
// λ² + λ + 1 = z⁴ − z² + 1 = r ≡ 0 (mod r). It serves two callers:
//
//   - MulSecret (scalarmul_ct.go) splits its secret scalar as
//     k ≡ k₁ + k₂·λ (mod r) and walks both halves over one shared chain
//     of 124 doublings, half the doublings of a walk over k itself. The
//     split and the signed-digit recoding below are constant-time: fixed
//     limbs, math/bits products, masks, and no branch, comparison or
//     index that depends on k.
//   - The subgroup test of G1FromBytes: a curve point P is in the order-r
//     subgroup iff [z²]φ(P) = −P (El Housni–Guillevic–Piellard, eprint
//     2022/352, after Scott), because z²·λ ≡ −1 (mod r); the z²
//     multiplication runs as two 64-bit |z| multiplications instead of a
//     255-bit r-multiplication.
//
// The split is Babai rounding against the basis v₁ = (z²−1, −1),
// v₂ = (1, z²) of the lattice L = {(a, b) : a + b·λ ≡ 0 (mod r)}, whose
// determinant is exactly r:
//
//	c₁ = round(k·z²/r),  c₂ = round(k/r),
//	(k₁, k₂) = (k, 0) − c₁·v₁ − c₂·v₂ = (k − c₁·λ − c₂, c₁ − c₂·z²),
//
// so k₁ + k₂·λ = k − c₂·r ≡ k. For k ∈ [0, r), c₂ = [k ≥ (r+1)/2], and
// c₁ = ⌊(k·g + 2³⁸²) / 2³⁸³⌋ with g = round(z²·2³⁸³/r) is round(k·z²/r + δ)
// with |δ| ≤ k/2³⁸⁴ < 2⁻¹²⁹. In basis coordinates (k₁, k₂) = x·v₁ + y·v₂
// with x = k·z²/r − c₁ and y = k/r − c₂, so |x| ≤ ½ + 2⁻¹²⁹, |y| ≤ ½, and
//
//	|k₁| ≤ |x|·(z²−1) + |y| < z²/2 + ½,   |k₂| ≤ |x| + |y|·z² < z²/2 + 1.
//
// Both are integers and z²/2 is one, so |k₁|, |k₂| ≤ z²/2 < 2¹²⁷ (z² has
// 128 bits): each half is exact in 128-bit two's complement, and 32
// signed 4-bit digits hold it with no carry out of the last (glvRecode).
// The walk's freedom from exceptional additions rests on the same bound
// (scalarmul_ct.go).

import (
	"math/big"
	"math/bits"
	"sync"
)

var (
	glvOnce sync.Once
	// glvBeta is the cube root of unity with φ = [λ]: φ(x,y) = (β·x, y).
	glvBeta fe
)

// GLV split constants, little-endian limbs.
var (
	glvZ2     = [2]uint64{0x0000000100000000, 0xac45a4010001a402} // z²
	glvLambda = [2]uint64{0x00000000ffffffff, 0xac45a4010001a402} // λ = z² − 1
	// glvG is round(z²·2³⁸³/r), the fixed-point reciprocal behind c₁.
	glvG = [4]uint64{0xed2f27c6c4b6396d, 0x1c4fa4d39345fbd1, 0xb1fb72917b67f718, 0xbe35f678f00fd56e}
	// rHalfUp is (r+1)/2, the threshold of c₂.
	rHalfUp = [4]uint64{0x7fffffff80000001, 0xa9ded2017fff2dff, 0x199cec0404d0ec02, 0x39f6d3a994cebea4}
)

// glvInit derives β. It is taken from the already-derived Frobenius
// constant ξ^{(p²−1)/6}: its square frobC2[2] = ξ^{(p²−1)/3} is a
// primitive cube root of unity. Which of the two primitive roots pairs
// with the eigenvalue λ (the other pairs with λ² = −z²) is decided
// against double-and-add on the generator — a one-time half-length
// multiplication.
func glvInit() {
	glvOnce.Do(func() {
		lambda := new(big.Int).SetUint64(blsX)
		lambda.Mul(lambda, lambda)
		lambda.Sub(lambda, big.NewInt(1))

		cand := frobC2[2]
		if cand.equal(&feR) {
			panic("bls: ξ^{(p²−1)/3} degenerated to 1")
		}
		g := G1Generator()
		lg := g.mulRaw(lambda)
		phi := g
		feMul(&phi.x, &g.x, &cand)
		if !phi.Equal(lg) {
			feMul(&cand, &cand, &frobC2[2]) // the other primitive root, β²
			phi = g
			feMul(&phi.x, &g.x, &cand)
			if !phi.Equal(lg) {
				panic("bls: neither cube root of unity matches the GLV eigenvalue")
			}
		}
		glvBeta = cand
	})
}

// g1Phi applies the endomorphism φ(x, y) = (β·x, y). In Jacobian
// coordinates the affine x is X/Z², so scaling X alone suffices. Callers
// must run glvInit first.
func g1Phi(p G1) G1 {
	feMul(&p.x, &p.x, &glvBeta)
	return p
}

// glvSplit returns the halves k₁, k₂ of the split of k (file comment) as
// 128-bit two's-complement values, little-endian.
//
//spin:secret k return
func glvSplit(k *Scalar) (k1, k2 [2]uint64) {
	// c₂ = [k ≥ (r+1)/2]: k − (r+1)/2 does not borrow.
	var borrow uint64
	for i := 0; i < 4; i++ {
		_, borrow = bits.Sub64(k.l[i], rHalfUp[i], borrow)
	}
	c2 := 1 ^ borrow

	// c₁ = ⌊(k·g + 2³⁸²) / 2³⁸³⌋ from the 512-bit product. Each step's
	// a·b + t + carry is at most (2⁶⁴−1)² + 2(2⁶⁴−1) = 2¹²⁸ − 1.
	var prod [8]uint64
	for i := 0; i < 4; i++ {
		var carry uint64
		for j := 0; j < 4; j++ {
			hi, lo := bits.Mul64(k.l[i], glvG[j])
			var c uint64
			lo, c = bits.Add64(lo, prod[i+j], 0)
			hi += c
			lo, c = bits.Add64(lo, carry, 0)
			hi += c
			prod[i+j], carry = lo, hi
		}
		prod[i+4] = carry
	}
	var c uint64
	prod[5], c = bits.Add64(prod[5], 1<<62, 0)
	prod[6], c = bits.Add64(prod[6], 0, c)
	prod[7] += c
	c1 := [2]uint64{prod[5]>>63 | prod[6]<<1, prod[6]>>63 | prod[7]<<1}

	// k₁ = k − c₁·λ − c₂ and k₂ = c₁ − c₂·z², modulo 2¹²⁸.
	hi, lo := bits.Mul64(c1[0], glvLambda[0])
	hi += c1[0]*glvLambda[1] + c1[1]*glvLambda[0]
	var b uint64
	k1[0], b = bits.Sub64(k.l[0], lo, 0)
	k1[1], _ = bits.Sub64(k.l[1], hi, b)
	k1[0], b = bits.Sub64(k1[0], c2, 0)
	k1[1], _ = bits.Sub64(k1[1], 0, b)
	m := -c2
	k2[0], b = bits.Sub64(c1[0], glvZ2[0]&m, 0)
	k2[1], _ = bits.Sub64(c1[1], glvZ2[1]&m, b)
	return k1, k2
}

// glvDigits is the number of signed 4-bit digits per GLV half.
const glvDigits = 32

// glvRecode writes the 128-bit two's-complement value v, |v| < 2¹²⁷, as
// Σ (−1)^neg[i]·abs[i]·16ⁱ with abs[i] ∈ [0, 8]: the magnitude's 4-bit
// windows plus the incoming carry give t ∈ [0, 16], and t > 8 becomes the
// digit t − 16 with a carry into the next window. The top window of a
// value below 2¹²⁷ is at most 7, so its t is at most 8 and no carry is
// left over. v's sign is folded into every neg[i]; a zero digit's neg is
// meaningless (the walk adds nothing for it).
//
//spin:secret v return
func glvRecode(v [2]uint64) (abs, neg [glvDigits]uint64) {
	sign := v[1] >> 63
	m := -sign
	var b uint64
	v[0], b = bits.Sub64(v[0]^m, m, 0) // |v|: (v ⊕ m) − m negates when m = −1
	v[1], _ = bits.Sub64(v[1]^m, m, b)
	var carry uint64
	for i := 0; i < glvDigits; i++ {
		t := (v[i>>4]>>(4*(i&15)))&15 + carry
		carry = (8 - t) >> 63
		abs[i] = t ^ ((t ^ (16 - t)) & -carry)
		neg[i] = sign ^ carry
	}
	return abs, neg
}

// mulZAbs multiplies by the positive 64-bit constant |z|: double-and-add
// over its bits, 63 doublings and 5 additions (|z| has six set bits, and
// its NAF, one digit longer, is no sparser) — the inner step of both
// subgroup checks.
func (p G1) mulZAbs() G1 {
	acc := p
	for i := blsXBitLen - 2; i >= 0; i-- {
		acc = acc.double()
		if blsX>>uint(i)&1 == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// inSubgroupEndo reports order-r subgroup membership for a point already
// known to be on the curve: [z²]φ(P) == −P, run as two 64-bit |z|
// multiplications (z² = |z|²) instead of a 255-bit r-multiplication.
func (p G1) inSubgroupEndo() bool {
	if p.IsInfinity() {
		return true
	}
	glvInit()
	q := g1Phi(p).mulZAbs().mulZAbs()
	return q.Equal(p.Neg())
}
