package bls

// fp2_ct_test.go proves the masked Fp2 multiply and square bit-identical
// to the fast fp2.go arithmetic on random and boundary operands (0, 1,
// p−1 in either coordinate), the same differential contract
// fp_ct_test.go pins for the base field.

import (
	"math/big"
	"testing"
)

func fp2CTBoundary() []fe2 {
	var pm1, one fe
	feFromBig(&pm1, new(big.Int).Sub(pMod, big.NewInt(1)))
	feFromBig(&one, big.NewInt(1))
	return []fe2{
		{},
		{c0: one},
		{c1: one},
		{c0: pm1, c1: pm1},
		{c0: one, c1: pm1},
	}
}

func TestFp2CTKernelsDifferential(t *testing.T) {
	cases := fp2CTBoundary()
	for i := 0; i < 50; i++ {
		cases = append(cases, randFe2(t))
	}
	for i := range cases {
		for j := range cases {
			x, y := cases[i], cases[j]
			var want, got fe2
			want.mul(&x, &y)
			fe2MulCT(&got, &x, &y)
			if want != got {
				t.Fatalf("fe2MulCT(%d,%d) differs", i, j)
			}
		}
		x := cases[i]
		var want, got fe2
		want.square(&x)
		fe2SquareCT(&got, &x)
		if want != got {
			t.Fatalf("fe2SquareCT(%d) differs", i)
		}
		if zero := (fe2{}); fe2IsZeroMask(&x) != 1 && x == zero {
			t.Fatalf("fe2IsZeroMask missed zero at %d", i)
		}
	}
	var z fe2
	if fe2IsZeroMask(&z) != 1 {
		t.Fatal("fe2IsZeroMask(0) != 1")
	}
	one := fe2{}
	one.setOne()
	if fe2IsZeroMask(&one) != 0 {
		t.Fatal("fe2IsZeroMask(1) != 0")
	}
	// fe2CMov keeps/overwrites by cond.
	a, b := fp2CTBoundary()[3], fp2CTBoundary()[1]
	got := a
	fe2CMov(&got, &b, 0)
	if got != a {
		t.Fatal("fe2CMov(cond=0) modified dst")
	}
	fe2CMov(&got, &b, 1)
	if got != b {
		t.Fatal("fe2CMov(cond=1) did not copy src")
	}
}
