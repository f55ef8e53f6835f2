package bls

// fp_ct_test.go proves the masked constant-time kernels byte-identical
// to the fast variable-time ones, with the reduction boundary cases
// (both sides of every conditional subtraction) driven explicitly.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math/bits"
	"math/rand"
	"testing"
)

// feMulCTLoop is the looped CIOS Montgomery multiplication with a masked
// final subtraction — the kernel feMulCT ran on before it moved to the
// unrolled rounds, kept as its differential oracle. Same contract: x may
// be any 384-bit value, y must be < p, the result is fully reduced.
func feMulCTLoop(z, x, y *fe) {
	var t [8]uint64
	for i := 0; i < 6; i++ {
		// t += x · y[i]
		var c uint64
		for j := 0; j < 6; j++ {
			hi, lo := bits.Mul64(x[j], y[i])
			var cr uint64
			lo, cr = bits.Add64(lo, t[j], 0)
			hi += cr
			lo, cr = bits.Add64(lo, c, 0)
			hi += cr
			t[j] = lo
			c = hi
		}
		var cr uint64
		t[6], cr = bits.Add64(t[6], c, 0)
		t[7] = cr

		// Montgomery reduction step: fold out t[0].
		m := t[0] * montInv
		hi, lo := bits.Mul64(m, pLimbs[0])
		_, cr = bits.Add64(lo, t[0], 0)
		c = hi + cr
		for j := 1; j < 6; j++ {
			hi, lo := bits.Mul64(m, pLimbs[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, c, 0)
			hi += cc
			t[j-1] = lo
			c = hi
		}
		t[5], cr = bits.Add64(t[6], c, 0)
		t[6] = t[7] + cr
	}
	// Result < 2p: one masked final subtraction.
	var r fe
	var b uint64
	r[0], b = bits.Sub64(t[0], pLimbs[0], 0)
	r[1], b = bits.Sub64(t[1], pLimbs[1], b)
	r[2], b = bits.Sub64(t[2], pLimbs[2], b)
	r[3], b = bits.Sub64(t[3], pLimbs[3], b)
	r[4], b = bits.Sub64(t[4], pLimbs[4], b)
	r[5], b = bits.Sub64(t[5], pLimbs[5], b)
	_, b = bits.Sub64(t[6], 0, b)
	m := ctMask(b) // all-ones ⇔ value < p ⇔ keep t
	for i := range z {
		z[i] = r[i] ^ (m & (r[i] ^ t[i]))
	}
}

// ctRandFe returns a uniformly random reduced field element by
// rejection sampling.
func ctRandFe(rng *rand.Rand) fe {
	for {
		var z fe
		for i := range z {
			z[i] = rng.Uint64()
		}
		z[5] &= (1 << 61) - 1 // top limb of p is 61 bits
		var t fe
		feReduceCT(&t, &z)
		if t == z { // z < p
			return z
		}
	}
}

// ctEdgeCases are reduction-boundary operands: 0, 1, p−1 (so x+y and
// x−y exercise both sides of every conditional subtraction), plus the
// high-limbed Montgomery constants.
func ctEdgeCases() []fe {
	var zero, one, pm1 fe
	feFromUint64(&one, 1)
	feNeg(&pm1, &one) // p − 1
	return []fe{zero, one, pm1, feR, feR2}
}

func TestFeAddSubReduceCTDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc7))
	cases := ctEdgeCases()
	for i := 0; i < 2000; i++ {
		cases = append(cases, ctRandFe(rng))
	}
	for i, x := range cases {
		y := cases[(i*7+3)%len(cases)]
		var want, got fe

		feAdd(&want, &x, &y)
		feAddCT(&got, &x, &y)
		if want != got {
			t.Fatalf("feAddCT mismatch: x=%x y=%x want=%x got=%x", x, y, want, got)
		}

		feSub(&want, &x, &y)
		feSubCT(&got, &x, &y)
		if want != got {
			t.Fatalf("feSubCT mismatch: x=%x y=%x want=%x got=%x", x, y, want, got)
		}

		feDouble(&want, &x)
		feDoubleCT(&got, &x)
		if want != got {
			t.Fatalf("feDoubleCT mismatch: x=%x want=%x got=%x", x, want, got)
		}

		t2 := x
		feReduce(&want, &t2)
		t2 = x
		feReduceCT(&got, &t2)
		if want != got {
			t.Fatalf("feReduceCT mismatch: t=%x want=%x got=%x", x, want, got)
		}
	}
}

// TestFeReduceCTAboveP drives feReduceCT on unreduced inputs in [p, 2p)
// where the subtraction branch must be taken.
func TestFeReduceCTAboveP(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd9))
	for i := 0; i < 2000; i++ {
		x := ctRandFe(rng)
		// t = x + p (no overflow: x < p, 2p < 2^384).
		var carry uint64
		var tv fe
		for j := range tv {
			var c uint64
			tv[j], c = addCarry(x[j], pLimbs[j], carry)
			carry = c
		}
		var want, got fe
		tw := tv
		feReduce(&want, &tw)
		tw = tv
		feReduceCT(&got, &tw)
		if want != got || got != x {
			t.Fatalf("feReduceCT above p: x=%x want=%x got=%x", x, want, got)
		}
	}
}

func addCarry(a, b, c uint64) (uint64, uint64) {
	s := a + b
	c1 := uint64(0)
	if s < a {
		c1 = 1
	}
	s2 := s + c
	if s2 < s {
		c1 = 1
	}
	return s2, c1
}

func TestFeMulSquareCTDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(0xe3))
	cases := ctEdgeCases()
	for i := 0; i < 1000; i++ {
		cases = append(cases, ctRandFe(rng))
	}
	for i, x := range cases {
		y := cases[(i*11+5)%len(cases)]
		var want, got fe

		feMul(&want, &x, &y)
		feMulCT(&got, &x, &y)
		if want != got {
			t.Fatalf("feMulCT mismatch: x=%x y=%x want=%x got=%x", x, y, want, got)
		}
		feMulCTLoop(&want, &x, &y)
		if want != got {
			t.Fatalf("feMulCT disagrees with the loop oracle: x=%x y=%x want=%x got=%x", x, y, want, got)
		}

		feSquare(&want, &x)
		feSquareCT(&got, &x)
		if want != got {
			t.Fatalf("feSquareCT mismatch: x=%x want=%x got=%x", x, want, got)
		}
		feMulCTLoop(&want, &x, &x)
		if want != got {
			t.Fatalf("feSquareCT disagrees with the loop oracle: x=%x want=%x got=%x", x, want, got)
		}
	}
}

// TestFeMulCTUnreducedOperand drives the x ≥ p half of feMulCT's contract
// (any 384-bit x) over the carry-chain edge vectors, where the masked tail
// must subtract.
func TestFeMulCTUnreducedOperand(t *testing.T) {
	rng := rand.New(rand.NewSource(0xf1))
	for _, x := range feEdgeCases() {
		for i := 0; i < 50; i++ {
			y := ctRandFe(rng)
			var want, got, alias fe
			feMulCTLoop(&want, &x, &y)
			feMulCT(&got, &x, &y)
			alias = x
			feMulCT(&alias, &alias, &y)
			if want != got || want != alias {
				t.Fatalf("feMulCT mismatch: x=%x y=%x want=%x got=%x aliased=%x", x, y, want, got, alias)
			}
		}
	}
}

// parseFuncs returns the named function and method declarations of the
// given source files, failing the test when one is missing (so a rename
// cannot silently drop a kernel from a source-level check).
func parseFuncs(t *testing.T, files []string, names ...string) (*token.FileSet, map[string]*ast.FuncDecl) {
	t.Helper()
	fset := token.NewFileSet()
	found := make(map[string]*ast.FuncDecl)
	for _, file := range files {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok {
				found[fn.Name.Name] = fn
			}
		}
	}
	out := make(map[string]*ast.FuncDecl, len(names))
	for _, name := range names {
		if found[name] == nil {
			t.Fatalf("function %s not found in %v", name, files)
		}
		out[name] = found[name]
	}
	return fset, out
}

// assertBranchFree fails for every if, switch, select, goto/break/continue
// or conditional loop in the named functions; ranging over a fixed-size
// limb array is the only loop allowed.
func assertBranchFree(t *testing.T, files []string, names ...string) {
	t.Helper()
	fset, fns := parseFuncs(t, files, names...)
	for name, fn := range fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.ForStmt, *ast.BranchStmt, *ast.SelectStmt:
				t.Errorf("%s: %s contains a branch (%T)", fset.Position(n.Pos()), name, n)
			}
			return true
		})
	}
}

// TestSecretKernelsBranchFree restates the constant-time claim on the
// source: the multiply/square rounds both tails share, the masked tail
// and the other fp_ct.go kernels contain no branch on limb data.
func TestSecretKernelsBranchFree(t *testing.T) {
	assertBranchFree(t, []string{"fp_unrolled.go", "fp_ct.go", "sswu.go"},
		"feMulRounds", "feSquareRounds", "feMulCT", "feSquareCT",
		"feReduceCT", "feAddCT", "feSubCT", "feDoubleCT",
		"madd0", "madd1", "madd2", "madd3",
		"feCMov", "feIsZeroMask", "ctMask", "ctNonzero64", "ct64Eq")
}

func TestCt64Eq(t *testing.T) {
	cases := []struct {
		a, b uint64
		want uint64
	}{
		{0, 0, 1}, {1, 0, 0}, {0, 1, 0}, {15, 15, 1},
		{^uint64(0), ^uint64(0), 1}, {^uint64(0), 0, 0}, {1 << 63, 1 << 63, 1},
	}
	for _, c := range cases {
		if got := ct64Eq(c.a, c.b); got != c.want {
			t.Errorf("ct64Eq(%d, %d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func BenchmarkFeAddCT(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x, y := ctRandFe(rng), ctRandFe(rng)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feAddCT(&z, &x, &y)
	}
}

func BenchmarkFeSubCT(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	x, y := ctRandFe(rng), ctRandFe(rng)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSubCT(&z, &x, &y)
	}
}

func BenchmarkFeMulCT(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	x, y := ctRandFe(rng), ctRandFe(rng)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feMulCT(&z, &x, &y)
	}
}

func BenchmarkFeSquareCT(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	x := ctRandFe(rng)
	var z fe
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feSquareCT(&z, &x)
	}
}
