package bls

// scalarmul_ct_test.go holds G1.MulSecret, the constant-time GLV walk, to
// the 4-bit fixed-window walk it replaced (mulSecret4Bit, the oracle):
// zero and tiny scalars (the accumulator-at-infinity and digit-zero
// fixups), r−1, ⌊r/2⌋ and its neighbour where c₂ flips, λ and z², scalars
// whose halves sit at the split's bound z²/2, scalars built to bring a
// final-window addition as close to its addend as the lattice allows, and
// random scalars. It also checks the split and the recoding as integers,
// replays the walk with an exception detector, and restates the walk's
// constant-time structure on the source.

import (
	"bytes"
	crand "crypto/rand"
	"encoding/binary"
	"fmt"
	"go/ast"
	"io"
	"math/big"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// scalarOf returns k mod r as a Scalar.
func scalarOf(k *big.Int) Scalar {
	var b [32]byte
	new(big.Int).Mod(k, rOrder).FillBytes(b[:])
	var s Scalar
	for i := range s.l {
		s.l[i] = binary.BigEndian.Uint64(b[24-8*i:])
	}
	return s
}

// big returns s as a big.Int.
func (s *Scalar) big() *big.Int {
	var b [32]byte
	for i := range s.l {
		binary.BigEndian.PutUint64(b[24-8*i:], s.l[i])
	}
	return new(big.Int).SetBytes(b[:])
}

// int128 reads a 128-bit two's-complement value.
func int128(v [2]uint64) *big.Int {
	out := new(big.Int).SetUint64(v[1])
	out.Lsh(out, 64).Or(out, new(big.Int).SetUint64(v[0]))
	if v[1]>>63 == 1 {
		out.Sub(out, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	return out
}

// mulSecret4Bit is the constant-time walk MulSecret ran before the GLV
// split: 64 four-bit windows of k mod r, 252 doublings, one masked
// addition from a 15-entry table per window.
func mulSecret4Bit(p G1, k *big.Int) G1 {
	if p.IsInfinity() {
		return p
	}
	var kb [32]byte
	new(big.Int).Mod(k, rOrder).FillBytes(kb[:])
	var tbl [15]G1
	tbl[0] = p
	for d := 1; d < 15; d++ {
		tbl[d] = tbl[d-1].Add(p)
	}
	g1NormalizeBatch(tbl[:])
	acc := g1Infinity()
	for w := 0; w < 64; w++ {
		if w != 0 {
			acc = acc.g1DoubleCT().g1DoubleCT().g1DoubleCT().g1DoubleCT()
		}
		digit := uint64(kb[w>>1])
		if w&1 == 0 {
			digit >>= 4
		} else {
			digit &= 0x0f
		}
		var qx, qy fe
		for d := uint64(1); d <= 15; d++ {
			m := ct64Eq(digit, d)
			feCMov(&qx, &tbl[d-1].x, m)
			feCMov(&qy, &tbl[d-1].y, m)
		}
		acc = g1AddMixedCT(&acc, &qx, &qy, ctNonzero64(digit))
	}
	return acc
}

// glvZ2Big is z² as a big.Int, and glvLambdaBig is λ = z² − 1.
var (
	glvZ2Big     = new(big.Int).Mul(new(big.Int).SetUint64(blsX), new(big.Int).SetUint64(blsX))
	glvLambdaBig = new(big.Int).Sub(glvZ2Big, big.NewInt(1))
)

// glvEdgeScalars are the fixed boundary scalars: the masked fix-ups, r−1,
// ⌊r/2⌋ and ⌊r/2⌋ + 1 (c₂ flips between them), λ, z² and their
// neighbours, and long runs of zero windows.
func glvEdgeScalars() []*big.Int {
	r := rOrder
	half := new(big.Int).Rsh(r, 1)
	return []*big.Int{
		big.NewInt(0), big.NewInt(1), big.NewInt(2), big.NewInt(8), big.NewInt(9),
		big.NewInt(15), big.NewInt(16), big.NewInt(17), big.NewInt(255),
		new(big.Int).Sub(r, big.NewInt(1)), new(big.Int).Sub(r, big.NewInt(2)),
		half, new(big.Int).Add(half, big.NewInt(1)), new(big.Int).Sub(half, big.NewInt(1)),
		glvLambdaBig, glvZ2Big, new(big.Int).Add(glvZ2Big, big.NewInt(1)),
		new(big.Int).Sub(r, glvLambdaBig), new(big.Int).Sub(r, glvZ2Big),
		new(big.Int).Lsh(big.NewInt(1), 200),
		new(big.Int).SetBit(big.NewInt(3), 252, 1),
		new(big.Int).Lsh(big.NewInt(1), 127), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 128), big.NewInt(1)),
	}
}

// glvBoundScalars are scalars whose halves sit at the split's bound z²/2:
// k = r·(½ ∓ (j+½)/z²) puts both basis coordinates of (k₁, k₂) next to
// ±½, and k = r·(j+½)/z² puts x there with y near 0.
func glvBoundScalars() []*big.Int {
	r := rOrder
	var ks []*big.Int
	for j := int64(0); j < 6; j++ {
		// off = r·(j+½)/z² = r·(2j+1)/(2z²)
		off := new(big.Int).Mul(r, big.NewInt(2*j+1))
		off.Quo(off, new(big.Int).Lsh(glvZ2Big, 1))
		half := new(big.Int).Rsh(r, 1)
		for _, d := range []int64{-1, 0, 1} {
			ks = append(ks,
				new(big.Int).Add(new(big.Int).Sub(half, off), big.NewInt(d)),
				new(big.Int).Add(new(big.Int).Add(half, off), big.NewInt(d)),
				new(big.Int).Add(off, big.NewInt(d)),
				new(big.Int).Sub(r, new(big.Int).Add(off, big.NewInt(d))),
			)
		}
	}
	return ks
}

// finalWindowScalars are the scalars k ≡ 2a + b·λ, a + 2b·λ and a + b·λ
// (mod r) for small a, b of either sign. Each has a second representation
// k₁ + k₂·λ one short lattice vector away, e.g. (λ + 2a, b − 1) for the
// first, whose final-window additions would double (a P-digit of a) or
// cancel. The split must pick the short representation, and the walk
// must agree with the oracle on it.
func finalWindowScalars() []*big.Int {
	var ks []*big.Int
	mk := func(a, b int64) *big.Int {
		k := new(big.Int).Mul(big.NewInt(b), glvLambdaBig)
		k.Add(k, big.NewInt(a))
		return k.Mod(k, rOrder)
	}
	for a := int64(-8); a <= 8; a++ {
		for b := int64(-8); b <= 8; b++ {
			ks = append(ks, mk(2*a, b), mk(a, 2*b), mk(a, b))
		}
	}
	return ks
}

func TestG1MulSecretDifferential(t *testing.T) {
	g := G1Generator()
	h := hashToG1RFC("mulsecret-test", []byte("base"))
	rng := rand.New(rand.NewSource(0x5afe))

	scalars := append(glvEdgeScalars(), glvBoundScalars()...)
	scalars = append(scalars, finalWindowScalars()...)
	for i := 0; i < 40; i++ {
		scalars = append(scalars, new(big.Int).Rand(rng, rOrder))
	}

	// The table build batch-normalizes d·P: drive a base already in affine
	// form (Z = 1, skipped by the batch) and one with Z ≠ 1.
	proj := h.Add(g).double()
	if !g.z.equal(&feR) || proj.z.equal(&feR) {
		t.Fatal("test bases do not cover both Z = 1 and Z ≠ 1")
	}

	for _, p := range []G1{g, h, proj} {
		for _, k := range scalars {
			s := scalarOf(k)
			want := mulSecret4Bit(p, k)
			got := p.MulSecret(&s)
			if !want.Equal(got) {
				t.Fatalf("MulSecret(%v) disagrees with the 4-bit walk: want %x got %x", k, want.Bytes(), got.Bytes())
			}
		}
	}
}

// TestG1MulSecretRandomScalars runs the walk against the 4-bit oracle on
// 100,000 random scalars, rotating through four bases, split across
// GOMAXPROCS workers. Under -short it checks 2,000; on the portable Go
// kernels (no ADX, as in the GOARCH=386 job), where both walks run ≈ 14×
// slower, 10,000.
func TestG1MulSecretRandomScalars(t *testing.T) {
	n := 100000
	switch {
	case testing.Short():
		n = 2000
	case !useADX:
		n = 10000
	}
	var bases [4]G1
	for i := range bases {
		bases[i] = hashToG1RFC("mulsecret-random", []byte{byte(i)})
	}
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	var failed atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(0x61b + int64(w)))
			for i := w; i < n && !failed.Load(); i += workers {
				k := new(big.Int).Rand(rng, rOrder)
				s := scalarOf(k)
				p := bases[i%len(bases)]
				if want, got := mulSecret4Bit(p, k), p.MulSecret(&s); !want.Equal(got) {
					t.Errorf("scalar %d (%v): MulSecret disagrees with the 4-bit walk", i, k)
					failed.Store(true)
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestGLVConstants derives the split's limb constants from r and z.
func TestGLVConstants(t *testing.T) {
	limbs := func(v *big.Int, n int) []uint64 {
		out := make([]uint64, n)
		w := new(big.Int).Set(v)
		for i := range out {
			out[i] = new(big.Int).And(w, new(big.Int).SetUint64(^uint64(0))).Uint64()
			w.Rsh(w, 64)
		}
		if w.Sign() != 0 {
			t.Fatalf("%v does not fit %d limbs", v, n)
		}
		return out
	}
	g := new(big.Int).Lsh(glvZ2Big, 384) // round(z²·2³⁸³/r) = ⌊(z²·2³⁸⁴ + r) / 2r⌋
	g.Add(g, rOrder).Quo(g, new(big.Int).Lsh(rOrder, 1))
	half := new(big.Int).Add(rOrder, big.NewInt(1))
	half.Rsh(half, 1)
	for _, c := range []struct {
		name string
		got  []uint64
		want *big.Int
	}{
		{"r", rLimbs[:], rOrder},
		{"(r+1)/2", rHalfUp[:], half},
		{"g", glvG[:], g},
		{"z²", glvZ2[:], glvZ2Big},
		{"λ", glvLambda[:], glvLambdaBig},
	} {
		if want := limbs(c.want, len(c.got)); fmt.Sprint(want) != fmt.Sprint(c.got) {
			t.Errorf("%s limbs %x, want %x", c.name, c.got, want)
		}
	}
}

// TestGLVSplitRecombines checks the fixed-limb split as integers: k₁ + k₂·λ
// ≡ k (mod r), |k₁|, |k₂| ≤ z²/2, and the recoding's digits rebuild each
// half exactly with every magnitude in [0, 8]. The bound scalars must come
// within 2¹⁰⁰ of z²/2, or they test nothing.
func TestGLVSplitRecombines(t *testing.T) {
	bound := new(big.Int).Rsh(glvZ2Big, 1)
	rng := rand.New(rand.NewSource(0x5b1))
	ks := append(glvEdgeScalars(), glvBoundScalars()...)
	ks = append(ks, finalWindowScalars()...)
	for i := 0; i < 4000; i++ {
		ks = append(ks, new(big.Int).Rand(rng, rOrder))
	}
	maxHalf := new(big.Int)
	for idx, k := range ks {
		s := scalarOf(k)
		k1, k2 := glvSplit(&s)
		b1, b2 := int128(k1), int128(k2)
		for _, h := range []*big.Int{b1, b2} {
			a := new(big.Int).Abs(h)
			if a.Cmp(bound) > 0 {
				t.Fatalf("k = %v: half %v exceeds z²/2", k, h)
			}
			if idx < len(glvEdgeScalars())+len(glvBoundScalars()) && a.Cmp(maxHalf) > 0 {
				maxHalf = a
			}
		}
		got := new(big.Int).Mul(b2, glvLambdaBig)
		got.Add(got, b1).Mod(got, rOrder)
		if got.Cmp(s.big()) != 0 {
			t.Fatalf("k = %v: k₁ + k₂·λ = %v", k, got)
		}
		for _, half := range [][2]uint64{k1, k2} {
			abs, neg := glvRecode(half)
			sum := new(big.Int)
			for i := glvDigits - 1; i >= 0; i-- {
				if abs[i] > 8 || neg[i] > 1 {
					t.Fatalf("k = %v: digit %d = (%d, %d) out of range", k, i, abs[i], neg[i])
				}
				d := big.NewInt(int64(abs[i]))
				if neg[i] == 1 {
					d.Neg(d)
				}
				sum.Lsh(sum, 4).Add(sum, d)
			}
			if sum.Cmp(int128(half)) != 0 {
				t.Fatalf("k = %v: digits rebuild %v, want %v", k, sum, int128(half))
			}
		}
	}
	if gap := new(big.Int).Sub(bound, maxHalf); gap.BitLen() > 100 {
		t.Fatalf("largest half of the bound scalars is 2^%d below z²/2", gap.BitLen())
	}
}

// TestGLVWalkNoExceptionalAddition replays MulSecret's walk with the
// production split, recoding and tables, and before every masked addition
// checks the case the branch-free formulas cannot handle: accumulator and
// addend both finite with the same x (acc = ±Q). scalarmul_ct.go argues it
// never happens; this runs the argument on the boundary and final-window
// scalars and on random ones.
func TestGLVWalkNoExceptionalAddition(t *testing.T) {
	glvInit()
	rng := rand.New(rand.NewSource(0xe7c))
	ks := append(glvEdgeScalars(), glvBoundScalars()...)
	ks = append(ks, finalWindowScalars()...)
	for i := 0; i < 200; i++ {
		ks = append(ks, new(big.Int).Rand(rng, rOrder))
	}
	p := hashToG1RFC("mulsecret-exceptions", []byte("base"))
	var tbl [8]G1
	tbl[0] = p
	for d := 1; d < 8; d++ {
		tbl[d] = tbl[d-1].Add(p)
	}
	g1NormalizeBatch(tbl[:])
	var xs, phiXs, ys [8]fe
	for d := range tbl {
		xs[d], ys[d] = tbl[d].x, tbl[d].y
		feMul(&phiXs[d], &tbl[d].x, &glvBeta)
	}
	for _, k := range ks {
		s := scalarOf(k)
		k1, k2 := glvSplit(&s)
		abs1, neg1 := glvRecode(k1)
		abs2, neg2 := glvRecode(k2)
		acc := g1Infinity()
		for w := glvDigits - 1; w >= 0; w-- {
			if w != glvDigits-1 {
				acc = acc.g1DoubleCT().g1DoubleCT().g1DoubleCT().g1DoubleCT()
			}
			for half, tx := range []*[8]fe{&xs, &phiXs} {
				abs, neg := abs1[w], neg1[w]
				if half == 1 {
					abs, neg = abs2[w], neg2[w]
				}
				if abs != 0 && !acc.IsInfinity() {
					var z2, ux fe
					feSquare(&z2, &acc.z)
					feMul(&ux, &tx[abs-1], &z2)
					if ux.equal(&acc.x) {
						t.Fatalf("k = %v: window %d, half %d: accumulator is ±%d·Q", k, w, half+1, abs)
					}
				}
				acc = g1AddDigitCT(&acc, tx, &ys, abs, neg)
			}
		}
		if want := mulSecret4Bit(p, k); !acc.Equal(want) {
			t.Fatalf("k = %v: replayed walk disagrees with the 4-bit walk", k)
		}
	}
}

// TestG1MulGLVMatchesNaive holds the GLV walk to plain double-and-add
// (mulRaw) on a non-generator base: an oracle independent of the
// constant-time point formulas both walks share.
func TestG1MulGLVMatchesNaive(t *testing.T) {
	p := G1Generator().mulRaw(big.NewInt(98765))
	rng := rand.New(rand.NewSource(0x9a1))
	ks := glvEdgeScalars()
	for i := 0; i < 48; i++ {
		ks = append(ks, new(big.Int).Rand(rng, rOrder))
	}
	for _, k := range ks {
		s := scalarOf(k)
		if !p.MulSecret(&s).Equal(p.mulRaw(s.big())) {
			t.Fatalf("GLV walk disagrees with double-and-add at %v", k)
		}
	}
}

// TestG1MulSecretShape restates the walk's constant-time structure on the
// source: the point formulas, the table scan, the split and the recoding
// are branch-free (the split and recoding loop a fixed number of times);
// and inside MulSecret nothing derived from the scalar — the halves, their
// digits, the accumulator — reaches a branch condition or an index.
func TestG1MulSecretShape(t *testing.T) {
	assertBranchFree(t, []string{"scalarmul_ct.go"}, "g1CMov", "g1DoubleCT", "g1AddMixedCT")
	assertBranchFreeFixedLoops(t, []string{"scalarmul_ct.go"}, "g1AddDigitCT")
	assertBranchFreeFixedLoops(t, []string{"glv.go"}, "glvSplit", "glvRecode")

	fset, fns := parseFuncs(t, []string{"scalarmul_ct.go"}, "MulSecret", "g1AddDigitCT")
	secret := map[string]bool{
		"k": true, "k1": true, "k2": true, "abs1": true, "abs2": true, "neg1": true, "neg2": true,
		"acc": true, "abs": true, "neg": true, "qx": true, "qy": true, "m": true,
	}
	mentionsSecret := func(e ast.Expr) (name string) {
		if e == nil {
			return ""
		}
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && secret[id.Name] {
				name = id.Name
			}
			return name == ""
		})
		return name
	}
	calls := map[string]int{}
	for fname, fn := range fns {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			var where string
			var e ast.Expr
			switch n := n.(type) {
			case *ast.IfStmt:
				where, e = "if condition", n.Cond
			case *ast.ForStmt:
				where, e = "loop condition", n.Cond
			case *ast.SwitchStmt:
				where, e = "switch tag", n.Tag
			case *ast.IndexExpr:
				where, e = "index", n.Index
			case *ast.CallExpr:
				switch fun := n.Fun.(type) {
				case *ast.Ident:
					calls[fun.Name]++
				case *ast.SelectorExpr:
					calls[fun.Sel.Name]++
				}
			}
			if name := mentionsSecret(e); name != "" {
				t.Errorf("%s: %s of %s depends on %s", fset.Position(n.Pos()), where, fname, name)
			}
			return true
		})
	}
	// Two table scans a window (x and y of every entry), one masked
	// negation, and each half's digits from one split and two recodings.
	if calls["feCMov"] != 2 || calls["feCNeg"] != 1 || calls["g1AddDigitCT"] != 2 ||
		calls["glvSplit"] != 1 || calls["glvRecode"] != 2 {
		t.Errorf("MulSecret's walk has the wrong shape: calls %v", calls)
	}
	// One field inversion: the batch normalization of the table, and no
	// per-entry affine conversion beside it.
	if calls["g1NormalizeBatch"] != 1 || calls["affine"]+calls["feInv"]+calls["feBatchInv"] != 0 {
		t.Errorf("MulSecret must invert exactly once, through g1NormalizeBatch: calls %v", calls)
	}
}

// TestG1MulSecretOutOfRange: MulSecret has no out-of-range scalars to
// reduce, because a Scalar below r is all sampleScalar makes. It redraws
// candidates ≥ r and zero, consuming the stream exactly as rand.Int(rng, r)
// with a redraw on zero did — which is what keeps seeded keys unchanged.
func TestG1MulSecretOutOfRange(t *testing.T) {
	r := rOrder
	candidates := []*big.Int{
		r, new(big.Int).Add(r, big.NewInt(5)), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 255), big.NewInt(1)),
		big.NewInt(0), new(big.Int).Sub(r, big.NewInt(1)),
	}
	var stream []byte
	for _, c := range candidates {
		var b [32]byte
		c.FillBytes(b[:])
		stream = append(stream, b[:]...)
	}
	stream[32*2] |= 0x80 // a set top bit is masked off, as rand.Int does
	s, err := sampleScalar(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if s.big().Cmp(candidates[4]) != 0 {
		t.Fatalf("sampleScalar returned %v, want r − 1", s.big())
	}
	rng := rand.New(rand.NewSource(0x5ca1))
	for i := 0; i < 200; i++ {
		seed := make([]byte, 4096)
		rng.Read(seed)
		// Force a few rejections: candidates ≥ r and one zero.
		seed[0], seed[32], seed[64] = 0x7f, 0xff, 0x00
		copy(seed[64:96], make([]byte, 32))
		want, err := randIntNonzero(bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		got, err := sampleScalar(bytes.NewReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		if got.big().Cmp(want) != 0 {
			t.Fatalf("stream %d: sampleScalar %v, rand.Int %v", i, got.big(), want)
		}
	}
	if _, err := sampleScalar(bytes.NewReader(make([]byte, 31))); err == nil {
		t.Fatal("a short stream must fail")
	}
}

// randIntNonzero is the sampling sampleScalar replaced.
func randIntNonzero(rng io.Reader) (*big.Int, error) {
	for {
		s, err := crand.Int(rng, rOrder)
		if err != nil {
			return nil, err
		}
		if s.Sign() != 0 {
			return s, nil
		}
	}
}

// TestG1MulSecretInfinity checks the identity base point short-circuit.
func TestG1MulSecretInfinity(t *testing.T) {
	inf := g1Infinity()
	s := scalarOf(big.NewInt(42))
	if got := inf.MulSecret(&s); !got.IsInfinity() {
		t.Fatalf("MulSecret on infinity returned a finite point")
	}
}

// TestSignUsesConstantTimePath pins the signature bytes across the
// 4-bit → GLV change of the signing walk: same key, same message, same
// bytes.
func TestSignUsesConstantTimePath(t *testing.T) {
	sk, _, err := GenerateKey(rand.New(rand.NewSource(0x51)))
	if err != nil {
		t.Fatal(err)
	}
	m := HashMessage([]byte("msg"))
	want := mulSecret4Bit(m.h, sk.s.big()).Bytes()
	if got := sk.SignMessage(m).Bytes(); !bytes.Equal(got, want) {
		t.Fatalf("signature %x, want %x", got, want)
	}
}

func BenchmarkG1MulSecret(b *testing.B) {
	ks, ps := benchScalarsAndPoints(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ps[i%len(ps)].MulSecret(&ks[i%len(ks)])
	}
}

// BenchmarkG1MulSecret4Bit times the oracle on the same inputs: the walk
// MulSecret ran before the GLV split.
func BenchmarkG1MulSecret4Bit(b *testing.B) {
	ks, ps := benchScalarsAndPoints(b)
	bigs := make([]*big.Int, len(ks))
	for i := range ks {
		bigs[i] = ks[i].big()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = mulSecret4Bit(ps[i%len(ps)], bigs[i%len(bigs)])
	}
}

// benchScalarsAndPoints returns 64 rotating scalars and affine bases, so
// no single input's digits set the timing.
func benchScalarsAndPoints(b *testing.B) ([]Scalar, []G1) {
	rng := rand.New(rand.NewSource(9))
	ks := make([]Scalar, 64)
	ps := make([]G1, 64)
	for i := range ks {
		ks[i] = scalarOf(new(big.Int).Rand(rng, rOrder))
		ps[i] = HashMessage([]byte{byte(i)}).h
	}
	return ks, ps
}
