package bls

// tower_adx_test.go holds the Fp6 and Fp12 assembly kernels
// (fp_mul_amd64.s) to the Go bodies they stand in for on ADX hosts, as
// fp2_adx_test.go does for the Fp2 kernels: on a ring of benchRing random
// operands, on elements with one coordinate or every coordinate among the
// edges 0, 1 and p−1 (raw and Montgomery), on operands that push the
// output coordinates toward the ends of the ranges the kernels' bounds
// allow, on draws near the edges, and under the aliasing the callers use —
// z = x, z = y and x = y for fe6.mul, in place for mulByLine (and with
// its line pointing into z), z = x for cyclotomicSquare. Every coordinate p−1 maximises every unreduced sum
// the kernels form.

import (
	"math/big"
	"math/rand"
	"testing"
)

// checkFe6Mul compares fe6MulADX with fe6.mulGeneric on x and y, into a
// fresh z and with z = x, z = y, x = y and z = x = y.
func checkFe6Mul(t *testing.T, x, y fe6) {
	t.Helper()
	var want, wantXX fe6
	want.mulGeneric(&x, &y)
	wantXX.mulGeneric(&x, &x)
	var fresh, xx fe6
	zx, zy, zxx := x, y, x
	fe6MulADX(&fresh, &x, &y)
	fe6MulADX(&zx, &zx, &y)
	fe6MulADX(&zy, &x, &zy)
	fe6MulADX(&xx, &x, &x)
	fe6MulADX(&zxx, &zxx, &zxx)
	for _, c := range []struct {
		alias     string
		got, want fe6
	}{{"z fresh", fresh, want}, {"z = x", zx, want}, {"z = y", zy, want}, {"x = y", xx, wantXX}, {"z = x = y", zxx, wantXX}} {
		if c.got != c.want {
			t.Fatalf("fe6.mul(%x, %x), %s: asm %x, Go %x", x, y, c.alias, c.got, c.want)
		}
	}
}

// checkFe12Kernels compares fe12MulByLineADX (in place, as the Miller
// loop calls it) and cyclotomicSquareADX (into a fresh z and in place)
// with their Go bodies on x and the line c0 + c1·v + v·w.
func checkFe12Kernels(t *testing.T, x fe12, c0, c1 fe2) {
	t.Helper()
	checkMulByLine(t, x, c0, c1)
	var wantSq, fresh fe12
	wantSq.cyclotomicSquareGeneric(&x)
	cyclotomicSquareADX(&fresh, &x)
	inPlace := x
	cyclotomicSquareADX(&inPlace, &inPlace)
	if fresh != wantSq || inPlace != wantSq {
		t.Fatalf("cyclotomicSquare(%x): asm %x (in place %x), Go %x", x, fresh, inPlace, wantSq)
	}
}

// checkMulByLine compares fe12MulByLineADX with mulByLineGeneric in
// place, and with the line's coefficients pointing into z: c0 and c1 at
// z.a0.b0 and z.a1.b2 (read after z.a0 is written), and c0 = c1 = z.a1.b0.
func checkMulByLine(t *testing.T, x fe12, c0, c1 fe2) {
	t.Helper()
	want, got := x, x
	want.mulByLineGeneric(&c0, &c1)
	fe12MulByLineADX(&got, &c0, &c1)
	if got != want {
		t.Fatalf("mulByLine(%x; %x, %x): asm %x, Go %x", x, c0, c1, got, want)
	}
	for _, c := range []struct {
		alias  string
		c0, c1 func(*fe12) *fe2
	}{
		{"c0 = z.a0.b0, c1 = z.a1.b2", func(z *fe12) *fe2 { return &z.a0.b0 }, func(z *fe12) *fe2 { return &z.a1.b2 }},
		{"c0 = c1 = z.a1.b0", func(z *fe12) *fe2 { return &z.a1.b0 }, func(z *fe12) *fe2 { return &z.a1.b0 }},
	} {
		want, got := x, x
		want.mulByLineGeneric(c.c0(&want), c.c1(&want))
		fe12MulByLineADX(&got, c.c0(&got), c.c1(&got))
		if got != want {
			t.Fatalf("mulByLine(%x), %s: asm %x, Go %x", x, c.alias, got, want)
		}
	}
}

// feEdges returns 0, 1, p−1, and the Montgomery forms of 1 and −1.
func feEdges() []fe {
	pm1 := pLimbs
	pm1[0]--
	var minusOne fe
	feNeg(&minusOne, &feR)
	return []fe{{}, {1}, pm1, feR, minusOne}
}

func fe6Coords(x *fe6) []*fe {
	return []*fe{&x.b0.c0, &x.b0.c1, &x.b1.c0, &x.b1.c1, &x.b2.c0, &x.b2.c1}
}

// fe12Coords returns pointers to the twelve Fp coordinates of x; the
// first six are those of x.a0.
func fe12Coords(x *fe12) []*fe { return append(fe6Coords(&x.a0), fe6Coords(&x.a1)...) }

// edgeSet returns, for each edge value, the element with every coordinate
// set to it and, for each coordinate of base in turn, base with that
// coordinate set to it.
func edgeSet[T any](base T, coords func(*T) []*fe) []T {
	var out []T
	for _, e := range feEdges() {
		var all T
		for _, c := range coords(&all) {
			*c = e
		}
		out = append(out, all)
		for i := range coords(&base) {
			x := base
			*coords(&x)[i] = e
			out = append(out, x)
		}
	}
	return out
}

func TestTowerKernelsMatchGoBodies(t *testing.T) {
	if !useADX {
		t.Skip("no BMI2/ADX: the tower methods run their Go bodies")
	}
	xs6, ys6 := ring(t, randFe6), ring(t, randFe6)
	xs12, cs := ring(t, randFe12), ring(t, randFe2)
	for i := range xs6 {
		j := (i + 1) & (benchRing - 1)
		checkFe6Mul(t, xs6[i], ys6[i])
		checkFe6Mul(t, xs6[i], ys6[j])
		checkFe12Kernels(t, xs12[i], cs[i], cs[j])
	}
	cyc := ring(t, randCyclotomic)
	for i := range cyc {
		checkFe12Kernels(t, cyc[i], cs[i], cs[(i+7)&(benchRing-1)])
	}

	edges6 := edgeSet(xs6[0], fe6Coords)
	for _, x := range edges6 {
		for _, y := range edges6 {
			checkFe6Mul(t, x, y)
		}
	}
	lines := fe2Edges()
	for i, x := range edgeSet(xs12[0], fe12Coords) {
		for j, c0 := range lines {
			checkFe12Kernels(t, x, c0, lines[(i+7*j)%len(lines)])
		}
	}
	// Every coordinate p−1 in every operand (the edge sets pair it with
	// other lines only).
	pm1 := feEdges()[2]
	var max12 fe12
	for _, c := range fe12Coords(&max12) {
		*c = pm1
	}
	maxLine := fe2{pm1, pm1}
	checkFe12Kernels(t, max12, maxLine, maxLine)

	// Every Fp2 coordinate of every operand among 0, p−1, (p−1)·u and
	// (p−1)(1 + u): the products' real parts reach ±(p−1)² and their
	// imaginary parts 2(p−1)², in every combination of signs, which
	// pushes the output coordinates of the Fp6 and line products toward
	// the ends of the ranges fp_mul_amd64.s bounds them by.
	corners := []fe2{{}, {pm1, fe{}}, {fe{}, pm1}, {pm1, pm1}}
	corner6 := func(i int) fe6 { return fe6{corners[i&3], corners[i>>2&3], corners[i>>4&3]} }
	for i := 0; i < 64; i++ {
		for j := 0; j < 64; j++ {
			checkFe6Mul(t, corner6(i), corner6(j))
		}
	}
	for i := 0; i < 64*64; i++ {
		x := fe12{corner6(i), corner6(i >> 6)}
		for j := 0; j < 16; j++ {
			checkMulByLine(t, x, corners[j&3], corners[j>>2])
		}
	}

	// Operands drawn near the edges, so that products and their sums sit
	// near the bounds in fp_mul_amd64.s.
	rng := rand.New(rand.NewSource(0xf6))
	near := func() fe {
		e := feEdges()[rng.Intn(5)]
		var d fe
		d[0] = rng.Uint64() >> 40
		if rng.Intn(2) == 0 {
			feAdd(&e, &e, &d)
		} else {
			feSub(&e, &e, &d)
		}
		return e
	}
	for n := 0; n < 2000; n++ {
		var x, y fe12
		for _, c := range fe12Coords(&x) {
			*c = near()
		}
		for _, c := range fe12Coords(&y) {
			*c = near()
		}
		checkFe6Mul(t, x.a0, y.a1)
		checkFe12Kernels(t, x, y.a0.b0, y.a0.b1)
	}
}

// FuzzTowerKernels feeds the tower kernels coordinates read as raw
// 48-byte big-endian integers reduced mod p, 24 of them: fe6.mul on
// coordinates 0–5 by 6–11, mulByLine on 0–11 with 12–15 as the line,
// and cyclotomicSquare on 12–23, which reuses the line's four.
func FuzzTowerKernels(f *testing.F) {
	if !useADX {
		f.Skip("no BMI2/ADX: the tower methods run their Go bodies")
	}
	for _, e := range feEdges() {
		b := rawBig(&e).FillBytes(make([]byte, fpSize))
		var seed []byte
		for i := 0; i < 24; i++ {
			seed = append(seed, b...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var c [24]fe
		for i := range c {
			lo := i * fpSize
			if lo >= len(b) {
				break
			}
			chunk := b[lo:min(lo+fpSize, len(b))]
			c[i] = rawFe(new(big.Int).Mod(new(big.Int).SetBytes(chunk), pMod))
		}
		pair := func(i int) fe2 { return fe2{c[i], c[i+1]} }
		six := func(i int) fe6 { return fe6{pair(i), pair(i + 2), pair(i + 4)} }
		checkFe6Mul(t, six(0), six(6))
		checkFe12Kernels(t, fe12{six(0), six(6)}, pair(12), pair(14))
		var sq, want fe12
		x := fe12{six(12), fe6{pair(18), pair(20), pair(22)}}
		want.cyclotomicSquareGeneric(&x)
		cyclotomicSquareADX(&sq, &x)
		if sq != want {
			t.Fatalf("cyclotomicSquare(%x): asm %x, Go %x", x, sq, want)
		}
	})
}
