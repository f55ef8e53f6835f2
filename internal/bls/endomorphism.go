package bls

// endomorphism.go implements the ψ (untwist–Frobenius–twist) endomorphism
// on the BLS12-381 twist. With the tower Fp12 = Fp6[w]/(w² − v),
// Fp6 = Fp2[v]/(v³ − ξ), the twist E → E' is (X, Y) ↦ (X·w², Y·w³), so
// conjugating by the twist turns the p-power Frobenius into
//
//	ψ(x, y) = (ξ^{−(p−1)/3}·x̄, ξ^{−(p−1)/2}·ȳ)
//
// (x̄ the Fp2 conjugate), two Fp2 multiplications per application. On the
// order-r subgroup G2, ψ acts as multiplication by z (the curve parameter):
// p ≡ t − 1 ≡ z (mod r) for BLS curves. That yields the subgroup
// membership test ψ(P) = [z]P used by G2FromBytes /
// G2FromCompressedBytes, a 64-bit |z| multiplication instead of the naive
// 255-bit r-multiplication (proven complete for BLS12-381 in eprint
// 2022/352).

import "sync"

var (
	psiOnce sync.Once
	// psiCx = ξ^{−(p−1)/3}, psiCy = ξ^{−(p−1)/2}: the twist conjugation
	// coefficients, derived by inverting the Frobenius constants frobC1.
	psiCx, psiCy fe2
)

func psiInit() {
	psiOnce.Do(func() {
		psiCx.inv(&frobC1[2]) // frobC1[2] = ξ^{(p−1)/3}
		psiCy.inv(&frobC1[3]) // frobC1[3] = ξ^{(p−1)/2}
	})
}

// g2Psi applies ψ to a Jacobian twist point. Conjugation is a field
// automorphism, so (c_x·X̄, c_y·Ȳ, Z̄) represents ψ of the affine point
// (X/Z², Y/Z³): the Z̄-denominators produced by conjugating X and Y are
// exactly the conjugated Z's powers.
func g2Psi(p G2) G2 {
	psiInit()
	var out G2
	out.x.conj(&p.x)
	out.x.mul(&out.x, &psiCx)
	out.y.conj(&p.y)
	out.y.mul(&out.y, &psiCy)
	out.z.conj(&p.z)
	return out
}

// mulZAbs multiplies by |z|: the G1 chain of glv.go (63 doublings, 5
// additions) on the twist.
func (p G2) mulZAbs() G2 {
	acc := p
	for i := blsXBitLen - 2; i >= 0; i-- {
		acc = acc.double()
		if blsX>>uint(i)&1 == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

// inSubgroupPsi reports order-r subgroup membership for a point already
// known to be on the twist: ψ(P) == [z]P, i.e. ψ(P) == −[|z|]P since z is
// negative.
func (p G2) inSubgroupPsi() bool {
	if p.IsInfinity() {
		return true
	}
	return g2Psi(p).Equal(p.mulZAbs().Neg())
}
