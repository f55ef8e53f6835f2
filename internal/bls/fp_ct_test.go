package bls

// fp_ct_test.go proves the masked add/sub kernels equal to math/big, with
// the reduction boundary cases (both sides of every conditional
// subtraction) driven explicitly, and restates "no branch on limb data"
// on the source of every kernel secret operands reach — the Go code by
// parsing it, the assembly multiplier by scanning its text.

import (
	"encoding/binary"
	"go/ast"
	"go/parser"
	"go/token"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// ctRandFe returns a uniformly random reduced field element by
// rejection sampling.
func ctRandFe(rng *rand.Rand) fe {
	for {
		var z fe
		for i := range z {
			z[i] = rng.Uint64()
		}
		z[5] &= (1 << 61) - 1 // top limb of p is 61 bits
		if feLess(&z, &pLimbs) {
			return z
		}
	}
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
	checkBranchFree(t, files, nil, names...)
}

// assertBranchFreeFixedLoops is assertBranchFree that also admits the
// counted loop `for i := 0; i < K; i++`, K an integer literal or a
// constant declared in files, with i assigned nowhere in the body: its
// trip count is fixed at compile time, whatever the data.
func assertBranchFreeFixedLoops(t *testing.T, files []string, names ...string) {
	t.Helper()
	consts := map[string]bool{}
	for _, file := range files {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.CONST {
				for _, spec := range gd.Specs {
					for _, name := range spec.(*ast.ValueSpec).Names {
						consts[name.Name] = true
					}
				}
			}
		}
	}
	checkBranchFree(t, files, func(loop *ast.ForStmt) bool { return fixedLoop(loop, consts) }, names...)
}

// checkBranchFree fails for every branch in the named functions except
// the for loops that allowLoop (if set) admits; it still checks their
// bodies.
func checkBranchFree(t *testing.T, files []string, allowLoop func(*ast.ForStmt) bool, names ...string) {
	t.Helper()
	fset, fns := parseFuncs(t, files, names...)
	for name, fn := range fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if loop, ok := n.(*ast.ForStmt); ok && allowLoop != nil && allowLoop(loop) {
				return true
			}
			switch n.(type) {
			case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.ForStmt, *ast.BranchStmt, *ast.SelectStmt:
				t.Errorf("%s: %s contains a branch (%T)", fset.Position(n.Pos()), name, n)
			}
			return true
		})
	}
}

// fixedLoop reports whether loop is `for i := 0; i < K; i++` with K an
// integer literal or one of consts, and i neither assigned nor addressed
// in the body.
func fixedLoop(loop *ast.ForStmt, consts map[string]bool) bool {
	init, _ := loop.Init.(*ast.AssignStmt)
	cond, _ := loop.Cond.(*ast.BinaryExpr)
	post, _ := loop.Post.(*ast.IncDecStmt)
	if init == nil || cond == nil || post == nil || init.Tok != token.DEFINE || len(init.Lhs) != 1 || len(init.Rhs) != 1 {
		return false
	}
	i, _ := init.Lhs[0].(*ast.Ident)
	zero, _ := init.Rhs[0].(*ast.BasicLit)
	if i == nil || zero == nil || zero.Value != "0" {
		return false
	}
	isI := func(e ast.Expr) bool { id, ok := e.(*ast.Ident); return ok && id.Name == i.Name }
	bounded := false
	switch k := cond.Y.(type) {
	case *ast.BasicLit:
		bounded = k.Kind == token.INT
	case *ast.Ident:
		bounded = consts[k.Name]
	}
	if !bounded || cond.Op != token.LSS || !isI(cond.X) || post.Tok != token.INC || !isI(post.X) {
		return false
	}
	moved := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				moved = moved || isI(lhs)
			}
		case *ast.IncDecStmt:
			moved = moved || isI(n.X)
		case *ast.UnaryExpr:
			moved = moved || n.Op == token.AND && isI(n.X)
		}
		return true
	})
	return !moved
}

// TestSecretKernelsBranchFree restates the constant-time claim on the
// source. Secret operands reach the same field kernels as public ones, so
// every kernel is held to it: the Go multiplier and squarer, the add/sub
// kernels, the Go bodies of their Fp2 lift and of fp4Square (mul and
// square are what the G2 comb calls), the madd helpers and the mask
// primitives contain no branch; feMul, feSquare, the dispatching fe2
// methods and fp4Square branch on useADX alone, a per-process constant;
// the safegcd inversion (fp_inv.go) loops only a fixed number of times
// (assertBranchFreeFixedLoops) and branches on nothing; and the assembly
// kernels, which the ctsecret analyzer cannot read, have no jump and no
// indexed address (assertAsmBranchFree).
func TestSecretKernelsBranchFree(t *testing.T) {
	assertBranchFree(t, []string{"fp_unrolled.go", "fp_limb.go", "sswu.go", "g2_ct.go"},
		"feMulGeneric", "feSquareGeneric",
		"feAdd", "feSub", "feDouble", "feNeg",
		"madd0", "madd1", "madd2", "madd3",
		"feCMov", "feIsZeroMask", "ctMask", "ctNonzero64", "ct64Eq",
		"fe2CMov", "fe2IsZeroMask")
	assertBranchFree(t, []string{"fp2.go"}, "addGeneric", "subGeneric", "double",
		"mulGeneric", "squareGeneric", "mulByNonResidueGeneric")
	assertBranchFree(t, []string{"fp12.go"}, "fp4SquareGeneric")
	assertBranchFreeFixedLoops(t, []string{"fp_inv.go"}, "feInv", "feInvSteps",
		"divsteps60", "divsteps30", "unpack32", "mac", "shr62", "update",
		"s62Reduce", "s62FromFe", "s62ToFe")
	assertBranchesOnADXOnly(t, []string{"fp_unrolled.go"}, "feMul", "feSquare")
	assertBranchesOnADXOnly(t, []string{"fp2.go"}, "add", "sub", "mul", "square", "mulByNonResidue")
	assertBranchesOnADXOnly(t, []string{"fp12.go"}, "fp4Square")

	files, err := filepath.Glob("*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found (%v)", err)
	}
	muls := 0
	for _, file := range files {
		muls += assertAsmBranchFree(t, file)
	}
	// A 384-bit product is 36 MULXQ and so is a Montgomery reduction:
	// feMulADX is 1 + 1 of them, fe2SquareADX 2 + 2, fe2MulADX 3 + 2 and
	// fp4SquareADX 6 + 4. A scan that counts fewer read the files wrong.
	if want := 36 * (2 + 4 + 5 + 10); muls < want {
		t.Errorf("scanned %d MULXQ instructions in %v, macros expanded; want at least %d", muls, files, want)
	}
}

// assertBranchesOnADXOnly fails for any branch in the named functions
// except one plain `if useADX` with no else.
func assertBranchesOnADXOnly(t *testing.T, files []string, names ...string) {
	t.Helper()
	fset, fns := parseFuncs(t, files, names...)
	for name, fn := range fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.IfStmt:
				if id, ok := n.Cond.(*ast.Ident); !ok || id.Name != "useADX" || n.Init != nil || n.Else != nil {
					t.Errorf("%s: %s branches on something other than useADX", fset.Position(n.Pos()), name)
				}
			case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.ForStmt, *ast.RangeStmt, *ast.BranchStmt, *ast.SelectStmt:
				t.Errorf("%s: %s contains a branch (%T)", fset.Position(n.Pos()), name, n)
			}
			return true
		})
	}
}

// assertAsmBranchFree scans a Go assembly file, macro bodies included,
// and fails on any jump or loop instruction and on any memory operand
// with an index register (base)(index*scale), the form a table lookup by
// limb data would take. Every memory operand must be off a static symbol
// (SB), the argument frame (FP), a constant offset off SP (the frame
// temporaries), or a register the file loads from the argument frame —
// the pointer arguments. It returns the number of MULXQ instructions in
// the file's TEXT bodies, macros expanded.
func assertAsmBranchFree(t *testing.T, file string) int {
	t.Helper()
	src, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	// body holds the instructions of each macro and TEXT symbol, as written.
	body := map[string][]string{}
	macros := map[string]bool{}
	var insns []string
	cur := ""
	for _, line := range strings.Split(string(src), "\n") {
		if i := strings.Index(line, "//"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		cont := strings.HasSuffix(line, "\\")
		line = strings.TrimSuffix(line, "\\")
		if def, ok := strings.CutPrefix(line, "#define "); ok {
			cur, line, _ = strings.Cut(strings.TrimSpace(def), " ")
			if name, params, ok := strings.Cut(def, "("); ok {
				_, line, _ = strings.Cut(params, ")")
				cur = strings.TrimSpace(name)
			}
			macros[cur] = true
		} else if sym, ok := strings.CutPrefix(line, "TEXT "); ok {
			cur, _, _ = strings.Cut(sym, "(")
			line = ""
		}
		for _, insn := range strings.Split(line, ";") {
			if insn = strings.TrimSpace(insn); insn != "" && !strings.HasPrefix(insn, "#") {
				body[cur] = append(body[cur], insn)
				insns = append(insns, insn)
			}
		}
		if macros[cur] && !cont {
			cur = ""
		}
	}
	argPtr := regexp.MustCompile(`^MOVQ\s+\w+\+\d+\(FP\),\s*(\w+)$`)
	bases := map[string]bool{"SB": true, "FP": true, "SP": true}
	for _, insn := range insns {
		if m := argPtr.FindStringSubmatch(insn); m != nil {
			bases[m[1]] = true
		}
	}
	// callee names the macro an instruction expands, if it is one.
	callee := func(insn string) string {
		name, _, _ := strings.Cut(strings.Fields(insn)[0], "(")
		if macros[name] {
			return name
		}
		return ""
	}
	memOperand := regexp.MustCompile(`\(([^()]*)\)`)
	for _, insn := range insns {
		if callee(insn) != "" {
			continue // an expansion site; the body is scanned as written
		}
		if op := strings.Fields(insn)[0]; strings.HasPrefix(op, "J") || strings.HasPrefix(op, "LOOP") {
			t.Errorf("%s: jump %q", file, insn)
		}
		for _, m := range memOperand.FindAllStringSubmatch(insn, -1) {
			if strings.Contains(m[1], "*") || !bases[m[1]] {
				t.Errorf("%s: memory operand (%s) is not off a pointer argument, the frame or a symbol: %q", file, m[1], insn)
			}
		}
	}
	var count func(name string) int
	count = func(name string) int {
		n := 0
		for _, insn := range body[name] {
			if m := callee(insn); m != "" {
				n += count(m)
			} else if strings.Fields(insn)[0] == "MULXQ" {
				n++
			}
		}
		return n
	}
	muls := 0
	for name := range body {
		if strings.HasPrefix(name, "·") {
			muls += count(name)
		}
	}
	return muls
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

// TestFixedLoopShape pins what assertBranchFreeFixedLoops admits: a
// counted loop to a literal or a constant, nothing data-bound, and no
// loop whose counter the body moves.
func TestFixedLoopShape(t *testing.T) {
	consts := map[string]bool{"K": true}
	for src, want := range map[string]bool{
		"for i := 0; i < 7; i++ {}":           true,
		"for i := 0; i < K; i++ { x[i] = 0 }": true,
		"for i := 0; i < n; i++ {}":           false,
		"for i := 0; i < int(x[0]); i++ {}":   false,
		"for i := 1; i < 7; i++ {}":           false,
		"for i := 0; i <= 7; i++ {}":          false,
		"for i := 0; i < 7; i += 2 {}":        false,
		"for i := 0; i < 7; i++ { i++ }":      false,
		"for i := 0; i < 7; i++ { i = 7 }":    false,
		"for i := 0; i < 7; i++ { p := &i }":  false,
		"for i := 0; i < 7; i++ { i := 3 }":   false,
		"for j := 0; i < 7; i++ {}":           false,
		"for x[0] != 0 {}":                    false,
	} {
		f, err := parser.ParseFile(token.NewFileSet(), "", "package p\nfunc f() {\n"+src+"\n}", 0)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		loop := f.Decls[0].(*ast.FuncDecl).Body.List[0].(*ast.ForStmt)
		if got := fixedLoop(loop, consts); got != want {
			t.Errorf("fixedLoop(%s) = %v, want %v", src, got, want)
		}
	}
}
