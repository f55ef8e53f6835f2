package bls

// fp_ct_test.go proves the masked multiplier tail byte-identical to the
// branching one and the masked add/sub kernels equal to math/big, with
// the reduction boundary cases (both sides of every conditional
// subtraction) driven explicitly, and restates "no branch on limb data"
// on the source.

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math/big"
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

// rawBig reads the limbs of x as a plain integer (no Montgomery
// conversion): feAdd/feSub act on limbs, and (aR + bR) mod p is (a + b)R,
// so the raw values must satisfy the plain modular identities.
func rawBig(x *fe) *big.Int {
	v := new(big.Int)
	for i := len(x) - 1; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(x[i]))
	}
	return v
}

// rawFe is rawBig's inverse for v in [0, p).
func rawFe(v *big.Int) fe {
	var buf [fpSize]byte
	v.FillBytes(buf[:])
	var z fe
	for i := range z {
		z[i] = binary.BigEndian.Uint64(buf[(5-i)*8 : (6-i)*8])
	}
	return z
}

// checkFeAddSub compares feAdd, feSub and feDouble on reduced x, y with
// math/big, in place and with the output aliasing an input.
func checkFeAddSub(t testing.TB, x, y fe) {
	t.Helper()
	a, b := rawBig(&x), rawBig(&y)
	for _, c := range []struct {
		name string
		want *big.Int
		run  func(z *fe)
	}{
		{"feAdd", new(big.Int).Add(a, b), func(z *fe) { feAdd(z, &x, &y) }},
		{"feSub", new(big.Int).Sub(a, b), func(z *fe) { feSub(z, &x, &y) }},
		{"feDouble", new(big.Int).Lsh(a, 1), func(z *fe) { feDouble(z, &x) }},
	} {
		want := rawFe(c.want.Mod(c.want, pMod))
		var got fe
		c.run(&got)
		if got != want {
			t.Fatalf("%s(%x, %x) = %x, want %x", c.name, x, y, got, want)
		}
	}
	aliased := x
	feAdd(&aliased, &aliased, &y)
	if want := rawFe(new(big.Int).Mod(new(big.Int).Add(a, b), pMod)); aliased != want {
		t.Fatalf("feAdd aliased to x: got %x, want %x", aliased, want)
	}
	aliased = y
	feSub(&aliased, &x, &aliased)
	if want := rawFe(new(big.Int).Mod(new(big.Int).Sub(a, b), pMod)); aliased != want {
		t.Fatalf("feSub aliased to y: got %x, want %x", aliased, want)
	}
}

// feAddSubPairs are the boundaries of the masked add/sub tails: 0, 1, p−1,
// pairs whose raw sum is exactly p and p−1 (the two sides of feAdd's trial
// subtraction), x = y (a zero difference, no borrow), and random limbs.
func feAddSubPairs(rng *rand.Rand, random int) [][2]fe {
	pm1 := pLimbs
	pm1[0]--
	edges := []fe{{}, {1}, pm1, feR, feR2}
	var pairs [][2]fe
	for _, x := range edges {
		for _, y := range edges {
			pairs = append(pairs, [2]fe{x, y})
		}
	}
	for i := 0; i < random; i++ {
		x := ctRandFe(rng)
		xb := rawBig(&x)
		toP := rawFe(new(big.Int).Sub(pMod, xb))
		if xb.Sign() == 0 {
			toP = fe{}
		}
		toPm1 := rawFe(new(big.Int).Sub(rawBig(&pm1), xb))
		pairs = append(pairs,
			[2]fe{x, toP}, [2]fe{x, toPm1}, [2]fe{x, x}, [2]fe{x, ctRandFe(rng)})
	}
	return pairs
}

func TestFeAddSubMatchesBig(t *testing.T) {
	for _, p := range feAddSubPairs(rand.New(rand.NewSource(0xc7)), 500) {
		checkFeAddSub(t, p[0], p[1])
	}
}

// FuzzFeAddSub feeds arbitrary 48-byte operands, reduced mod p, to
// checkFeAddSub; the seeds are the boundary pairs.
func FuzzFeAddSub(f *testing.F) {
	for _, p := range feAddSubPairs(rand.New(rand.NewSource(0xc8)), 4) {
		f.Add(rawBig(&p[0]).FillBytes(make([]byte, fpSize)), rawBig(&p[1]).FillBytes(make([]byte, fpSize)))
	}
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		x := rawFe(new(big.Int).Mod(new(big.Int).SetBytes(xb), pMod))
		y := rawFe(new(big.Int).Mod(new(big.Int).SetBytes(yb), pMod))
		checkFeAddSub(t, x, y)
	})
}

// TestFeReduceCTAboveP drives feReduceCT, the multiplier's masked tail, on
// both sides of its subtraction: inputs in [p, 2p) must come back as
// t − p, inputs below p unchanged.
func TestFeReduceCTAboveP(t *testing.T) {
	rng := rand.New(rand.NewSource(0xd9))
	for i := 0; i < 2000; i++ {
		x := ctRandFe(rng)
		// t = x + p (no overflow: x < p, 2p < 2^384).
		var tv fe
		var c uint64
		for j := range tv {
			tv[j], c = bits.Add64(x[j], pLimbs[j], c)
		}
		var got fe
		feReduceCT(&got, &tv)
		if got != x {
			t.Fatalf("feReduceCT above p: x=%x got=%x", x, got)
		}
		feReduceCT(&got, &x)
		if got != x {
			t.Fatalf("feReduceCT below p: x=%x got=%x", x, got)
		}
	}
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
// source: the multiply/square rounds both tails share, the masked tail,
// the one add/sub kernel every caller uses (and its Fp2 lift, which the
// G2 comb calls), and the mask primitives contain no branch on limb data.
func TestSecretKernelsBranchFree(t *testing.T) {
	assertBranchFree(t, []string{"fp_unrolled.go", "fp_ct.go", "fp_limb.go", "sswu.go"},
		"feMulRounds", "feSquareRounds", "feMulCT", "feSquareCT", "feReduceCT",
		"feAdd", "feSub", "feDouble",
		"madd0", "madd1", "madd2", "madd3",
		"feCMov", "feIsZeroMask", "ctMask", "ctNonzero64", "ct64Eq")
	assertBranchFree(t, []string{"fp2.go"}, "add", "sub", "double")
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
