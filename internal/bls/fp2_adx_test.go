package bls

// fp2_adx_test.go holds the Fp2 assembly kernels (fp_mul_amd64.s) to the
// Go bodies they stand in for on ADX hosts: every kernel on a ring of
// benchRing random operands, on Fp2 elements whose coordinates are the
// edges 0, 1 and p−1 (raw and Montgomery) in every combination, on pairs
// whose coordinate sums land on and around p, and under every aliasing
// pattern the callers use.

import (
	"math/rand"
	"testing"
)

type fe2BinKernel struct {
	name      string
	asm, body func(z, x, y *fe2)
}

type fe2UnKernel struct {
	name      string
	asm, body func(z, x *fe2)
}

var (
	fe2BinKernels = []fe2BinKernel{
		{"add", fe2AddADX, (*fe2).addGeneric},
		{"sub", fe2SubADX, (*fe2).subGeneric},
		{"mul", fe2MulADX, (*fe2).mulGeneric},
	}
	fe2UnKernels = []fe2UnKernel{
		{"square", fe2SquareADX, (*fe2).squareGeneric},
		{"mulByNonResidue", fe2MulByNonResidueADX, (*fe2).mulByNonResidueGeneric},
	}
)

// checkFe2Kernels compares every kernel with its Go body on x and y:
// binary kernels into a fresh z, with z = x, z = y, x = y and z = x = y;
// unary kernels on x into a fresh z and in place.
func checkFe2Kernels(t *testing.T, x, y fe2) {
	t.Helper()
	for _, k := range fe2BinKernels {
		var want, wantXX fe2
		k.body(&want, &x, &y)
		k.body(&wantXX, &x, &x)
		var fresh, zx, zy, xx, zxx fe2
		k.asm(&fresh, &x, &y)
		zx, zy, zxx = x, y, x
		k.asm(&zx, &zx, &y)
		k.asm(&zy, &x, &zy)
		k.asm(&xx, &x, &x)
		k.asm(&zxx, &zxx, &zxx)
		for _, c := range []struct {
			alias     string
			got, want fe2
		}{{"z fresh", fresh, want}, {"z = x", zx, want}, {"z = y", zy, want}, {"x = y", xx, wantXX}, {"z = x = y", zxx, wantXX}} {
			if c.got != c.want {
				t.Fatalf("%s(%x, %x), %s: asm %x, Go %x", k.name, x, y, c.alias, c.got, c.want)
			}
		}
	}
	for _, k := range fe2UnKernels {
		var want, fresh fe2
		k.body(&want, &x)
		k.asm(&fresh, &x)
		inPlace := x
		k.asm(&inPlace, &inPlace)
		if fresh != want || inPlace != want {
			t.Fatalf("%s(%x): asm %x (in place %x), Go %x", k.name, x, fresh, inPlace, want)
		}
	}
}

// fe2Edges returns every Fp2 element whose coordinates are among 0, 1,
// p−1, and the Montgomery forms of 1 and −1.
func fe2Edges() []fe2 {
	pm1 := pLimbs
	pm1[0]--
	var minusOne fe
	feNeg(&minusOne, &feR)
	edges := []fe{{}, {1}, pm1, feR, minusOne}
	var out []fe2
	for _, c0 := range edges {
		for _, c1 := range edges {
			out = append(out, fe2{c0, c1})
		}
	}
	return out
}

func TestFe2KernelsMatchGoBodies(t *testing.T) {
	if !useADX {
		t.Skip("no BMI2/ADX: the fe2 methods run their Go bodies")
	}
	edges := fe2Edges()
	for _, x := range edges {
		for _, y := range edges {
			checkFe2Kernels(t, x, y)
		}
	}
	// Coordinate sums of exactly p and p−1 (feAddSubPairs), both sides of
	// every trial subtraction, with the two coordinates on different sides.
	pairs := feAddSubPairs(rand.New(rand.NewSource(0xf2)), 64)
	for i := 0; i+1 < len(pairs); i++ {
		checkFe2Kernels(t, fe2{pairs[i][0], pairs[i+1][0]}, fe2{pairs[i][1], pairs[i+1][1]})
	}
	xs, ys := ring(t, randFe2), ring(t, randFe2)
	for i := range xs {
		checkFe2Kernels(t, xs[i], ys[i])
		checkFe2Kernels(t, xs[i], ys[(i+1)&(benchRing-1)])
	}
}
