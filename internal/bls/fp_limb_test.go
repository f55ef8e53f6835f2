package bls

// Differential tests: the limb-based Montgomery field against math/big on
// random inputs. math/big is the reference oracle here — it never runs in
// production paths.

import (
	"crypto/rand"
	"math/big"
	"testing"
)

func randFeBig(t testing.TB) *big.Int {
	t.Helper()
	v, err := rand.Int(rand.Reader, pMod)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func feFromBig(z *fe, v *big.Int) {
	var buf [48]byte
	v.FillBytes(buf[:])
	feFromBytes(z, buf[:])
}

func feToBig(z *fe) *big.Int {
	var buf [48]byte
	feToBytes(buf[:], z)
	return new(big.Int).SetBytes(buf[:])
}

func TestFeRoundTrip(t *testing.T) {
	for i := 0; i < 64; i++ {
		want := randFeBig(t)
		var z fe
		feFromBig(&z, want)
		if got := feToBig(&z); got.Cmp(want) != 0 {
			t.Fatalf("round trip: got %x want %x", got, want)
		}
	}
	var one fe
	feFromUint64(&one, 1)
	if !one.isOne() || feToBig(&one).Cmp(big.NewInt(1)) != 0 {
		t.Fatal("Montgomery one broken")
	}
}

func TestFeArithmeticDifferential(t *testing.T) {
	mod := func(v *big.Int) *big.Int { return v.Mod(v, pMod) }
	for i := 0; i < 256; i++ {
		a, b := randFeBig(t), randFeBig(t)
		var fa, fb, fz fe
		feFromBig(&fa, a)
		feFromBig(&fb, b)

		feAdd(&fz, &fa, &fb)
		if feToBig(&fz).Cmp(mod(new(big.Int).Add(a, b))) != 0 {
			t.Fatalf("add mismatch at %d", i)
		}
		feSub(&fz, &fa, &fb)
		if feToBig(&fz).Cmp(mod(new(big.Int).Sub(a, b))) != 0 {
			t.Fatalf("sub mismatch at %d", i)
		}
		feMul(&fz, &fa, &fb)
		if feToBig(&fz).Cmp(mod(new(big.Int).Mul(a, b))) != 0 {
			t.Fatalf("mul mismatch at %d", i)
		}
		feSquare(&fz, &fa)
		if feToBig(&fz).Cmp(mod(new(big.Int).Mul(a, a))) != 0 {
			t.Fatalf("square mismatch at %d", i)
		}
		feNeg(&fz, &fa)
		if feToBig(&fz).Cmp(mod(new(big.Int).Neg(a))) != 0 {
			t.Fatalf("neg mismatch at %d", i)
		}
		feDouble(&fz, &fa)
		if feToBig(&fz).Cmp(mod(new(big.Int).Lsh(a, 1))) != 0 {
			t.Fatalf("double mismatch at %d", i)
		}
	}
}

// TestFeSquareMatchesMul pins the dedicated symmetric squaring against
// feMul(z, x, x) on random and boundary inputs (0, 1, 2, p−1, p−2, R, R²):
// the two must agree limb for limb since both fully reduce.
func TestFeSquareMatchesMul(t *testing.T) {
	cases := []fe{{}, feRawOne, {2}, feR, feR2}
	var pm1, pm2 fe
	feFromBig(&pm1, new(big.Int).Sub(pMod, big.NewInt(1)))
	feFromBig(&pm2, new(big.Int).Sub(pMod, big.NewInt(2)))
	cases = append(cases, pm1, pm2)
	for i := 0; i < 256; i++ {
		var x fe
		feFromBig(&x, randFeBig(t))
		cases = append(cases, x)
	}
	for i, x := range cases {
		var sq, mu fe
		feSquare(&sq, &x)
		feMul(&mu, &x, &x)
		if sq != mu {
			t.Fatalf("case %d: feSquare %x != feMul %x", i, sq, mu)
		}
	}
}

func TestFeInvDifferential(t *testing.T) {
	for i := 0; i < 32; i++ {
		a := randFeBig(t)
		if a.Sign() == 0 {
			continue
		}
		var fa, fz fe
		feFromBig(&fa, a)
		feInv(&fz, &fa)
		want := new(big.Int).ModInverse(a, pMod)
		if feToBig(&fz).Cmp(want) != 0 {
			t.Fatalf("inv mismatch at %d", i)
		}
		// a · a⁻¹ = 1
		feMul(&fz, &fz, &fa)
		if !fz.isOne() {
			t.Fatal("a·a⁻¹ != 1")
		}
	}
}

func TestFeSqrtDifferential(t *testing.T) {
	sqrtExpBig := new(big.Int).Rsh(new(big.Int).Add(pMod, big.NewInt(1)), 2)
	hits := 0
	for i := 0; i < 32; i++ {
		a := randFeBig(t)
		var fa, fz fe
		feFromBig(&fa, a)
		ok := feSqrt(&fz, &fa)
		y := new(big.Int).Exp(a, sqrtExpBig, pMod)
		wantOK := new(big.Int).Mod(new(big.Int).Mul(y, y), pMod).Cmp(a) == 0
		if ok != wantOK {
			t.Fatalf("sqrt residue disagreement at %d", i)
		}
		if ok {
			hits++
			if feToBig(&fz).Cmp(y) != 0 {
				t.Fatalf("sqrt value mismatch at %d", i)
			}
		}
	}
	if hits == 0 {
		t.Fatal("no quadratic residues in 32 samples (astronomically unlikely)")
	}
}

func TestFeExpMatchesBig(t *testing.T) {
	a := randFeBig(t)
	var fa, fz fe
	feFromBig(&fa, a)
	feExp(&fz, &fa, pMinus1Over6[:])
	e := new(big.Int).Div(new(big.Int).Sub(pMod, big.NewInt(1)), big.NewInt(6))
	if feToBig(&fz).Cmp(new(big.Int).Exp(a, e, pMod)) != 0 {
		t.Fatal("feExp mismatch vs big.Int")
	}
}

func TestFeWideReduction(t *testing.T) {
	for i := 0; i < 64; i++ {
		var wide [64]byte
		if _, err := rand.Read(wide[:]); err != nil {
			t.Fatal(err)
		}
		var fz fe
		feReduceWide(&fz, wide[:])
		want := new(big.Int).Mod(new(big.Int).SetBytes(wide[:]), pMod)
		if feToBig(&fz).Cmp(want) != 0 {
			t.Fatalf("wide reduction mismatch at %d", i)
		}
	}
}

func TestFeValidBytes(t *testing.T) {
	var buf [48]byte
	pMod.FillBytes(buf[:])
	if feValidBytes(buf[:]) {
		t.Fatal("p accepted as < p")
	}
	new(big.Int).Sub(pMod, big.NewInt(1)).FillBytes(buf[:])
	if !feValidBytes(buf[:]) {
		t.Fatal("p-1 rejected")
	}
}

func TestDerivedExponents(t *testing.T) {
	toBig := func(l []uint64) *big.Int {
		v := new(big.Int)
		for i := len(l) - 1; i >= 0; i-- {
			v.Lsh(v, 64)
			v.Or(v, new(big.Int).SetUint64(l[i]))
		}
		return v
	}
	if toBig(pPlus1Over4Limbs[:]).Cmp(new(big.Int).Rsh(new(big.Int).Add(pMod, big.NewInt(1)), 2)) != 0 {
		t.Fatal("(p+1)/4 wrong")
	}
	if toBig(pMinus1Over6[:]).Cmp(new(big.Int).Div(new(big.Int).Sub(pMod, big.NewInt(1)), big.NewInt(6))) != 0 {
		t.Fatal("(p-1)/6 wrong")
	}
	psq := new(big.Int).Mul(pMod, pMod)
	if toBig(pSqMinus1Over6[:]).Cmp(new(big.Int).Div(new(big.Int).Sub(psq, big.NewInt(1)), big.NewInt(6))) != 0 {
		t.Fatal("(p²-1)/6 wrong")
	}
}
