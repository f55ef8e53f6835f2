package bls

// fp_inv_test.go holds the safegcd inversion to the Fermat inversion it
// replaced, x^(p−2) by feExp, on the edges of the field and of the limb
// layout, and makes the divstep bound visible: after the last batch
// g = 0 and f = ±1 on every input.

import (
	"math/big"
	"math/rand"
	"testing"
)

// pMinus2 is the Fermat exponent p − 2.
var pMinus2 = func() fe {
	e := pLimbs
	e[0] -= 2 // p[0] ends ...aaab, no borrow
	return e
}()

// feInvFermat is the differential oracle: z = x^(p−2), so 0 ↦ 0.
func feInvFermat(z, x *fe) { feExp(z, x, pMinus2[:]) }

// s62Big reads r as the signed integer Σ r[i]·2^(62i).
func s62Big(r *s62) *big.Int {
	v := big.NewInt(r[6])
	for i := 5; i >= 0; i-- {
		v.Lsh(v, 62).Add(v, big.NewInt(r[i]))
	}
	return v
}

// feInvEdges are the raw Montgomery values 0, 1, 2, R, −R, p−1 and p−2.
func feInvEdges() []fe {
	pm1, pm2, negR := pLimbs, pLimbs, fe{}
	pm1[0]--
	pm2[0] -= 2
	feNeg(&negR, &feR)
	return []fe{{}, {1}, {2}, feR, negR, pm1, pm2}
}

// pow2 is the raw value 2^k.
func pow2(k int) fe {
	var x fe
	x[k/64] = 1 << (k % 64)
	return x
}

// feInvInputs are the edges, 2^k for every k < 381, and random reduced
// elements.
func feInvInputs(rng *rand.Rand, random int) []fe {
	xs := feInvEdges()
	for k := 0; k < 381; k++ {
		xs = append(xs, pow2(k))
	}
	for i := 0; i < random; i++ {
		xs = append(xs, ctRandFe(rng))
	}
	return xs
}

// checkFeInv compares feInv(x) with the Fermat oracle, checks x·x⁻¹ = 1,
// and checks the state feInvSteps ends in: g = 0, f = ±1, and d ≡ f·x⁻¹
// in (−2p, p); for x = 0, d = g = 0 and f = p.
func checkFeInv(t testing.TB, x fe) {
	t.Helper()
	var got, want, one fe
	feInv(&got, &x)
	feInvFermat(&want, &x)
	if got != want {
		t.Fatalf("feInv(%x) = %x, Fermat gives %x", x, got, want)
	}
	d, f, g := feInvSteps(&x)
	if g != (s62{}) {
		t.Fatalf("feInv(%x): g = %v after %d batches, want 0", x, g, invBatches)
	}
	if x.isZero() {
		if !got.isZero() || d != (s62{}) || f != pS62 {
			t.Fatalf("feInv(0) = %x with d = %v, f = %v; want 0, 0, p", got, d, f)
		}
		return
	}
	if minusOne := (s62{m62, m62, m62, m62, m62, m62, -1}); f != (s62{1}) && f != minusOne {
		t.Fatalf("feInv(%x): f = %v after %d batches, want ±1", x, f, invBatches)
	}
	db, xb := s62Big(&d), rawBig(&x)
	if db.Cmp(new(big.Int).Neg(new(big.Int).Lsh(pMod, 1))) <= 0 || db.Cmp(pMod) >= 0 {
		t.Fatalf("feInv(%x): d = %v outside (−2p, p)", x, db)
	}
	if prod := new(big.Int).Mul(db, xb); prod.Sub(prod, s62Big(&f)).Mod(prod, pMod).Sign() != 0 {
		t.Fatalf("feInv(%x): d·x ≢ f (mod p)", x)
	}
	feMul(&one, &x, &got)
	if !one.isOne() {
		t.Fatalf("feInv(%x): x·x⁻¹ = %x, want R", x, one)
	}
}

func TestFeInvMatchesFermat(t *testing.T) {
	for _, x := range feInvInputs(rand.New(rand.NewSource(0x1a01)), 64) {
		checkFeInv(t, x)
	}
}

// TestS62Layout pins the constants of the signed-62 layout: p round-trips
// through it, and pInv62 is p⁻¹ mod 2^62.
func TestS62Layout(t *testing.T) {
	if got := s62ToFe(&pS62); got != pLimbs {
		t.Fatalf("p through signed-62 limbs: %x", got)
	}
	if s62Big(&pS62).Cmp(pMod) != 0 {
		t.Fatal("pS62 is not p")
	}
	if got := uint64(pS62[0]) * pInv62 & m62; got != 1 {
		t.Fatalf("p·pInv62 mod 2^62 = %d, want 1", got)
	}
	if 60*invBatches < (49*381+57)/17 {
		t.Fatalf("%d divsteps are fewer than the 1,101 a 381-bit modulus needs", 60*invBatches)
	}
}

// FuzzFeInv feeds arbitrary 48-byte values, reduced mod p, to checkFeInv;
// the seeds are the edges and the powers of two at limb boundaries.
func FuzzFeInv(f *testing.F) {
	seeds := feInvEdges()
	for _, k := range []int{61, 62, 63, 64, 124, 372, 380} {
		seeds = append(seeds, pow2(k))
	}
	for _, x := range seeds {
		f.Add(rawBig(&x).FillBytes(make([]byte, fpSize)))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		checkFeInv(t, rawFe(new(big.Int).Mod(new(big.Int).SetBytes(b), pMod)))
	})
}

// TestDivsteps60MatchesDefinition runs 60 textbook divsteps on full-size
// f and g with math/big and checks divsteps60, which reads only their
// low 62 bits: the same δ, and u·f + v·g = 2^62·f', q·f + r·g = 2^62·g'.
// The inputs include g = 0 and g = f, whose batches double one matrix
// row 60 times, the largest entries the packing has to hold.
func TestDivsteps60MatchesDefinition(t *testing.T) {
	rng := rand.New(rand.NewSource(0x1a03))
	type input struct {
		delta int64
		f, g  *big.Int
	}
	var ins []input
	for i := 0; i < 2000; i++ {
		f := new(big.Int).Rand(rng, pMod)
		f.SetBit(f, 0, 1)
		g := new(big.Int).Rand(rng, pMod)
		if i%4 == 1 {
			g.Neg(g)
		}
		ins = append(ins, input{int64(rng.Intn(241) - 120), f, g})
	}
	for _, delta := range []int64{-60, 0, 1, 60} {
		ins = append(ins, input{delta, new(big.Int).Set(pMod), new(big.Int)},
			input{delta, new(big.Int).Set(pMod), new(big.Int).Set(pMod)},
			input{delta, big.NewInt(1), big.NewInt(-1)})
	}
	low := func(x *big.Int) uint64 {
		m := new(big.Int).And(x, new(big.Int).SetUint64(m62)) // two's complement low bits
		return m.Uint64()
	}
	for _, in := range ins {
		delta, f, g := in.delta, new(big.Int).Set(in.f), new(big.Int).Set(in.g)
		for i := 0; i < 60; i++ {
			switch {
			case delta > 0 && g.Bit(0) == 1:
				delta, f, g = 1-delta, g, new(big.Int).Rsh(new(big.Int).Sub(g, f), 1)
			case g.Bit(0) == 1:
				delta, g = 1+delta, new(big.Int).Rsh(new(big.Int).Add(g, f), 1)
			default:
				delta, g = 1+delta, new(big.Int).Rsh(g, 1)
			}
		}
		eta, u, v, q, r := divsteps60(-in.delta, low(in.f), low(in.g))
		lin := func(a, b int64) *big.Int {
			x := new(big.Int).Mul(big.NewInt(a), in.f)
			return x.Add(x, new(big.Int).Mul(big.NewInt(b), in.g))
		}
		if eta != -delta || lin(u, v).Cmp(new(big.Int).Lsh(f, 62)) != 0 || lin(q, r).Cmp(new(big.Int).Lsh(g, 62)) != 0 {
			t.Fatalf("divsteps60(δ=%d, f=%x, g=%x): η=%d, matrix (%d %d; %d %d); want δ=%d, f'=%x, g'=%x",
				in.delta, in.f, in.g, eta, u, v, q, r, delta, f, g)
		}
	}
}
