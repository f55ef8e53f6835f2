package bls

// Micro-benchmarks for the field tower: the satellite instrumentation that
// makes regressions in mul/square/inv formulas visible per layer.
//
// The field and tower benchmarks rotate through a ring of benchRing
// random inputs. With one fixed input the branch predictor learns every
// data-dependent branch in the first few iterations, so a kernel that
// branches on a borrow looks as fast as a masked one; on the pairing's
// real data that borrow is a coin flip.

import "testing"

// benchRing is the number of distinct inputs a ring benchmark cycles
// through (a power of two, so the index is a mask).
const benchRing = 64

// ring draws benchRing inputs from gen.
func ring[T any](tb testing.TB, gen func(testing.TB) T) *[benchRing]T {
	var r [benchRing]T
	for i := range r {
		r[i] = gen(tb)
	}
	return &r
}

func randFe(t testing.TB) fe { return randFe2(t).c0 }

func BenchmarkFeAdd(b *testing.B) {
	xs, ys := ring(b, randFe), ring(b, randFe)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feAdd(&z, &xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

func BenchmarkFeSub(b *testing.B) {
	xs, ys := ring(b, randFe), ring(b, randFe)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSub(&z, &xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

// BenchmarkFeMul times the multiplier every caller runs: the ADX kernel
// on a CPU with BMI2 and ADX, feMulGeneric elsewhere.
func BenchmarkFeMul(b *testing.B) {
	benchMul(b, feMul)
}

// BenchmarkFeSquare vs BenchmarkFeMul shows what a dedicated squaring
// buys: on ADX hosts feSquareADX forms 21 limb products where the
// multiplier forms 36, and each reduces once.
func BenchmarkFeSquare(b *testing.B) {
	benchSquare(b, feSquare)
}

// The *Generic variants time the portable Go kernels, which run where
// the CPU lacks ADX; the gap to BenchmarkFeMul is the assembly's win.
func BenchmarkFeMulGeneric(b *testing.B) {
	benchMul(b, feMulGeneric)
}

func BenchmarkFeSquareGeneric(b *testing.B) {
	benchSquare(b, feSquareGeneric)
}

// The *Loop variants benchmark the looped kernels the unrolled
// straight-line code replaced (fp_unrolled.go), now test-only oracles;
// the gap to the *Generic ones is the unrolling win.
func BenchmarkFeMulLoop(b *testing.B) {
	benchMul(b, feMulLoop)
}

func BenchmarkFeSquareLoop(b *testing.B) {
	benchSquare(b, feSquareLoop)
}

// benchMul times mul over a ring of operand pairs.
func benchMul(b *testing.B, mul func(z, x, y *fe)) {
	xs, ys := ring(b, randFe), ring(b, randFe)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mul(&z, &xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

// benchSquare times sq over a ring of operands.
func benchSquare(b *testing.B, sq func(z, x *fe)) {
	xs := ring(b, randFe)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sq(&z, &xs[i&(benchRing-1)])
	}
}

func BenchmarkFeInv(b *testing.B) {
	x := randFe2(b).c0
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feInv(&z, &x)
	}
}

func BenchmarkFp2Mul(b *testing.B) {
	xs, ys := ring(b, randFe2), ring(b, randFe2)
	var z fe2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.mul(&xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

func BenchmarkFp2Square(b *testing.B) {
	xs := ring(b, randFe2)
	var z fe2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.square(&xs[i&(benchRing-1)])
	}
}

func BenchmarkFp2Inv(b *testing.B) {
	x := randFe2(b)
	var z fe2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.inv(&x)
	}
}

func BenchmarkFp6Mul(b *testing.B) {
	xs, ys := ring(b, randFe6), ring(b, randFe6)
	var z fe6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.mul(&xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

// BenchmarkFp6MulGeneric times fe6.mul's Go body, which runs where the
// CPU lacks ADX; on ADX the gap to BenchmarkFp6Mul is the lazy kernel's
// win.
func BenchmarkFp6MulGeneric(b *testing.B) {
	xs, ys := ring(b, randFe6), ring(b, randFe6)
	var z fe6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.mulGeneric(&xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

func BenchmarkFp6Square(b *testing.B) {
	xs := ring(b, randFe6)
	var z fe6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.square(&xs[i&(benchRing-1)])
	}
}

func BenchmarkFp6Inv(b *testing.B) {
	x := randFe6(b)
	var z fe6
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.inv(&x)
	}
}

func BenchmarkFp12Mul(b *testing.B) {
	xs, ys := ring(b, randFe12), ring(b, randFe12)
	var z fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.mul(&xs[i&(benchRing-1)], &ys[i&(benchRing-1)])
	}
}

func BenchmarkFp12Square(b *testing.B) {
	xs := ring(b, randFe12)
	var z fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.square(&xs[i&(benchRing-1)])
	}
}

func BenchmarkFp12CyclotomicSquare(b *testing.B) {
	xs := ring(b, randCyclotomic)
	var z fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.cyclotomicSquare(&xs[i&(benchRing-1)])
	}
}

func BenchmarkFp12Inv(b *testing.B) {
	x := randFe12(b)
	var z fe12
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		z.inv(&x)
	}
}

// BenchmarkFp12MulByLine times the Miller loop's product with one
// normalised line, c0 + c1·v + v·w.
func BenchmarkFp12MulByLine(b *testing.B) {
	xs, cs := ring(b, randFe12), ring(b, randFe2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (benchRing - 1)
		xs[j].mulByLine(&cs[j], &cs[(j+1)&(benchRing-1)])
	}
}

// The G1 group law in place, as the subgroup checks, cofactor clearing and
// the fixed-scalar walks call it: the ADX kernels on ADX hosts, the Go
// bodies elsewhere. The points are random subgroup points with random Z;
// the mixed addition's operand is a second ring's affine x and y. The
// *Generic variants time the Go bodies; on ADX the gap is the kernels'
// win, which the ratio guards hold.
func BenchmarkG1Double(b *testing.B) { benchG1Double(b, g1Double) }

func BenchmarkG1DoubleGeneric(b *testing.B) { benchG1Double(b, g1DoubleGeneric) }

func benchG1Double(b *testing.B, double func(r, p *G1)) {
	ps := ring(b, randG1Jacobian)
	var r G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		double(&r, &ps[i&(benchRing-1)])
	}
}

func BenchmarkG1AddMixed(b *testing.B) { benchG1AddMixed(b, g1AddMixed) }

func BenchmarkG1AddMixedGeneric(b *testing.B) { benchG1AddMixed(b, g1AddMixedGeneric) }

func benchG1AddMixed(b *testing.B, add func(r, p *G1, qx, qy *fe)) {
	ps, qs := ring(b, randG1Jacobian), ring(b, randG1Jacobian)
	var xs, ys [benchRing]fe
	for i := range qs {
		xs[i], ys[i], _ = qs[i].affine()
	}
	var r G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (benchRing - 1)
		add(&r, &ps[j], &xs[(j+1)&(benchRing-1)], &ys[(j+1)&(benchRing-1)])
	}
}

func BenchmarkG1Add(b *testing.B) {
	ps := ring(b, randG1Jacobian)
	var r G1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (benchRing - 1)
		g1Add(&r, &ps[j], &ps[(j+1)&(benchRing-1)])
	}
}

// BenchmarkSqrtRatio3mod4 times the hash's square root, the fixed
// (p−3)/4 chain and six products, on random u and v.
func BenchmarkSqrtRatio3mod4(b *testing.B) {
	us, vs := ring(b, randFe), ring(b, randFe)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sqrtRatio3mod4(&us[i&(benchRing-1)], &vs[i&(benchRing-1)])
	}
}
