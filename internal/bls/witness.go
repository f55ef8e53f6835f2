package bls

import (
	"errors"
	"fmt"
	"math/bits"
)

// witness.go replaces the final exponentiation of a BLS check by a
// residue witness (Novakovic and Eagen, "On Proving Pairings", ePrint
// 2024/640). Let F be the un-conjugated Miller-loop product of
// (−σ, g₂), (H(m), pk), as pairingProduct computes it, and
// λ = p − x = p + |x|. A verifier holding a witness u ∈ Fp12 accepts iff
// u ≠ 0 and F·u^λ lies in Fp6*, the subfield whose w-half is zero. It
// folds u into the Miller loop (the accumulator starts at u and takes a
// factor u at each set bit of |x|), applies one Frobenius for u^p and one
// more product: no final exponentiation.
//
// Soundness. λ = r·m with m = (x−1)²/3, the G1 cofactor, and r divides
// Φ₁₂(p), which divides p⁶+1, so h = (p¹²−1)/r is a multiple of p⁶−1. If
// F·u^λ = c ∈ Fp6*, then c^h = 1 and u^{λh} = u^{m(p¹²−1)} = 1, so
// F^h = 1. That is exactly what finalExp(conj F) = 1 tests: finalExp
// raises to 3h, conj is the p⁶-th power, and gcd(3p⁶, r) = 1.
//
// Completeness. With K = (p⁶+1)/r, gcd(λ, K) = 1, and the prover sets
// u = F^e for e = −λ⁻¹ mod K. Then F·u^λ = F^{1+eλ} is a power of F^K,
// and (F^K)^{p⁶−1} = F^h = 1 for a valid F, so F^K ∈ Fp6*.
//
// u only matters modulo Fp6*: a factor c ∈ Fp6* in u puts c^λ ∈ Fp6* in
// F·u^λ. So the prover writes e in base p, e = Σ eᵢ·pⁱ, computes
// Π frobⁱ(F)^{eᵢ} with one shared squaring chain, and uses conj(y) for
// y⁻¹ in its signed windows: conj(y)·y = y^{p⁶+1} ∈ Fp6*. The test file
// derives every constant below from p, r and x with math/big.

// WitnessSize is the encoded size of a residue witness: 12 Fp
// coordinates.
const WitnessSize = 12 * fpSize

// witnessDigits are e = −λ⁻¹ mod K in base p, least significant first,
// each as little-endian limbs. The top digit is 122 bits.
var witnessDigits = [6][6]uint64{
	{0x62305d650d53c56e, 0x9b3376c4f5840ac7, 0x3dfb051eeb4bfa09, 0x1210cfd1004619cb, 0x32f316fec32359bf, 0x0008625c2f253d3a},
	{0x42eb3ec36e7b0b9b, 0xe3b3d0a47605ce4a, 0x7010761182137996, 0x5eca659527035ae0, 0x42df52115c3a767c, 0x0a271ba117182483},
	{0x60f7eca776014234, 0x04701d4b86b52949, 0x784b500fb3f73672, 0x931826217abd9c9c, 0x027870438dee329a, 0x0e690e7108013c15},
	{0xce7a4fdab00a6014, 0x27aed8acd28fc19e, 0x0732b1128131b262, 0x286060771c45b11b, 0x3305c0deb6fbfec4, 0x0a271ba117182483},
	{0x15c7b9ece8acfcc6, 0x8bdc97333532832c, 0x6907749120eebc47, 0xe21df71bdcf9e3a8, 0xa9f78569a925026f, 0x0160231fbc1c0b8d},
	{0xae8f111696e4d47a, 0x0378b2b348dddb53},
}

// witnessWindow is the width of the signed windows: digits are odd, in
// ±{1, 3, …, 31}, so each base keeps a table of 16 odd powers.
// witnessBits bounds a digit's NAF, one bit longer than the digit.
// witnessSplit is the bit at which the prover's two goroutines divide
// the windows.
const (
	witnessWindow = 6
	witnessTable  = 1 << (witnessWindow - 2)
	witnessBits   = 382
	witnessSplit  = 240
)

// witnessNAF holds the width-witnessWindow NAF of each digit, least
// significant first.
var witnessNAF = func() (nafs [6][witnessBits]int8) {
	for i := range witnessDigits {
		nafs[i] = wnaf(witnessDigits[i])
	}
	return nafs
}()

// wnaf returns the width-witnessWindow non-adjacent form of the
// little-endian k, least significant digit first.
func wnaf(k [6]uint64) (out [witnessBits]int8) {
	var t [7]uint64
	copy(t[:], k[:])
	for b := 0; t != ([7]uint64{}); b++ {
		if t[0]&1 == 1 {
			d := int(t[0] & (1<<witnessWindow - 1))
			if d >= 1<<(witnessWindow-1) {
				d -= 1 << witnessWindow
			}
			if d > 0 {
				t[0] -= uint64(d) // the low bits of t[0] are d: no borrow
			} else {
				var c uint64
				t[0], c = bits.Add64(t[0], uint64(-d), 0)
				for i := 1; c != 0; i++ {
					t[i], c = bits.Add64(t[i], 0, c)
				}
			}
			out[b] = int8(d)
		}
		shiftRight1(t[:])
	}
	return out
}

// residueWitness returns u = F^e up to a factor in Fp6*. The table of
// F's odd powers is computed once; the other bases' tables are its
// Frobenius images. A second goroutine takes the windows at or above bit
// witnessSplit of every digit and shifts its product up by squarings:
// the prover's wall time falls to one squaring chain and part of the
// products, for witnessSplit extra squarings of CPU.
func residueWitness(f *fe12) fe12 {
	tabs := new([6][witnessTable]fe12)
	var sq fe12
	sq.square(f)
	tabs[0][0] = *f
	for j := 1; j < witnessTable; j++ {
		tabs[0][j].mul(&tabs[0][j-1], &sq)
	}
	for i := 1; i < len(tabs); i++ {
		for j := range tabs[i] {
			tabs[i][j].frobenius(&tabs[i-1][j])
		}
	}
	var hi fe12
	done := make(chan struct{})
	go func() {
		hi = residuePower(tabs, witnessSplit, witnessBits)
		for i := 0; i < witnessSplit; i++ {
			hi.square(&hi)
		}
		close(done)
	}()
	lo := residuePower(tabs, 0, witnessSplit)
	<-done
	lo.mul(&lo, &hi)
	return lo
}

// residuePower returns Π frobⁱ(F)^{dᵢ}, up to a factor in Fp6*, where dᵢ
// is the value of digit i's windows at bits from ≤ b < to, shifted down
// by from: one squaring chain over the signed windows of all six digits.
func residuePower(tabs *[6][witnessTable]fe12, from, to int) fe12 {
	var acc fe12
	acc.setOne()
	for bit := to - 1; bit >= from; bit-- {
		acc.square(&acc)
		for i := range witnessNAF {
			d := witnessNAF[i][bit]
			if d == 0 {
				continue
			}
			t := &tabs[i][(max(d, -d)-1)/2]
			if d < 0 {
				var c fe12
				c.conj(t) // y⁻¹ up to a factor in Fp6*
				t = &c
			}
			acc.mul(&acc, t)
		}
	}
	return acc
}

// proveWitness returns the residue witness for e(σ, g₂) = e(h, pk). The
// Miller loop conjugates its output for the negative x, so F is the
// conjugate of what it returns.
func proveWitness(sig, h G1, pk *g2Prepared) fe12 {
	f := millerProduct([]G1{sig.Neg(), h}, []*g2Prepared{g2GeneratorPrepared(), pk}, nil)
	f.conj(&f)
	return residueWitness(&f)
}

// verifyWitness reports whether F·u^λ ∈ Fp6*. The loop folded with u
// returns conj(F·u^{|x|}); times conj(u^p) that is conj(F·u^λ), which is
// in Fp6* exactly when F·u^λ is.
func verifyWitness(sig, h G1, pk *g2Prepared, u *fe12) bool {
	if u.isZero() {
		return false
	}
	t := millerProduct([]G1{sig.Neg(), h}, []*g2Prepared{g2GeneratorPrepared(), pk}, u)
	var up fe12
	up.frobenius(u)
	up.conj(&up)
	t.mul(&t, &up)
	return t.a1.isZero() && !t.a0.isZero()
}

// Witness is a residue witness for one signature check: the provider's
// proof, sent with each epoch commit, that the aggregate signature
// verifies, which an HSM checks without a final exponentiation.
type Witness struct{ u fe12 }

// ProveMessage computes the residue witness for sig on m under pk. For a
// signature that does not verify, the witness it returns fails
// VerifyMessageWitness like any other.
func (pk *PublicKey) ProveMessage(m Message, sig *Signature) (*Witness, error) {
	if sig == nil || sig.p.IsInfinity() || pk.p.IsInfinity() {
		return nil, errors.New("bls: no witness for the identity")
	}
	return &Witness{u: proveWitness(sig.p, m.h, pk.prepared())}, nil
}

// VerifyMessageWitness checks a (possibly aggregate) signature on a
// hashed message under pk with the residue witness w: one two-pair
// Miller loop with w folded in, and a test for membership in Fp6*.
func (pk *PublicKey) VerifyMessageWitness(m Message, sig *Signature, w *Witness) (bool, error) {
	if sig == nil || w == nil || sig.p.IsInfinity() || pk.p.IsInfinity() {
		return false, nil
	}
	return verifyWitness(sig.p, m.h, pk.prepared(), &w.u), nil
}

// coords lists z's twelve Fp coordinates in encoding order: a0.b0.c0,
// a0.b0.c1, a0.b1.c0, …, a1.b2.c1.
func (z *fe12) coords() [12]*fe {
	return [12]*fe{
		&z.a0.b0.c0, &z.a0.b0.c1, &z.a0.b1.c0, &z.a0.b1.c1, &z.a0.b2.c0, &z.a0.b2.c1,
		&z.a1.b0.c0, &z.a1.b0.c1, &z.a1.b1.c0, &z.a1.b1.c1, &z.a1.b2.c0, &z.a1.b2.c1,
	}
}

func (x *fe12) isZero() bool { return x.a0.isZero() && x.a1.isZero() }

// Bytes encodes the witness as its 12 Fp coordinates, each 48 big-endian
// bytes, in coords order.
func (w *Witness) Bytes() []byte {
	out := make([]byte, WitnessSize)
	for i, c := range w.u.coords() {
		feToBytes(out[i*fpSize:(i+1)*fpSize], c)
	}
	return out
}

// WitnessFromBytes decodes a witness strictly: exactly WitnessSize bytes,
// every coordinate below p, and not the zero element.
func WitnessFromBytes(b []byte) (*Witness, error) {
	if len(b) != WitnessSize {
		return nil, fmt.Errorf("bls: witness encoding must be %d bytes, got %d", WitnessSize, len(b))
	}
	w := new(Witness)
	for i, c := range w.u.coords() {
		chunk := b[i*fpSize : (i+1)*fpSize]
		if !feValidBytes(chunk) {
			return nil, fmt.Errorf("bls: witness coordinate %d is not below p", i)
		}
		feFromBytes(c, chunk)
	}
	if w.u.isZero() {
		return nil, errors.New("bls: witness is zero")
	}
	return w, nil
}
