package bls

// Differential and fuzz coverage for every field multiplier — the ADX
// assembly kernel (fp_mul_amd64.s) where the CPU has it, the portable
// feMulGeneric/feSquareGeneric (fp_unrolled.go), and the dispatching
// feMul/feSquare — against the loop kernels the unrolled code replaced
// (feMulLoop/feSquareLoop, below). The loop versions are the oracle: they
// were themselves differentially tested against math/big, so
// limb-for-limb agreement here chains every kernel back to the reference
// arithmetic.

import (
	"crypto/rand"
	"encoding/binary"
	"math/bits"
	mrand "math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
)

// feMulLoop is the looped CIOS Montgomery multiplication
// (z = x·y·R⁻¹ mod p). It is the retained differential oracle for the
// unrolled straight-line feMulGeneric (fp_unrolled.go), which replaced it
// on the hot path: the loop's per-iteration carry bookkeeping defeats the
// compiler's add-carry fusion. Same contract as feMul: x may be any
// 384-bit value; y must be < p; the result is fully reduced.
func feMulLoop(z, x, y *fe) {
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
	// Result < 2p: one conditional subtraction.
	var r fe
	var b uint64
	r[0], b = bits.Sub64(t[0], pLimbs[0], 0)
	r[1], b = bits.Sub64(t[1], pLimbs[1], b)
	r[2], b = bits.Sub64(t[2], pLimbs[2], b)
	r[3], b = bits.Sub64(t[3], pLimbs[3], b)
	r[4], b = bits.Sub64(t[4], pLimbs[4], b)
	r[5], b = bits.Sub64(t[5], pLimbs[5], b)
	_, b = bits.Sub64(t[6], 0, b)
	if b == 0 {
		*z = r
	} else {
		copy(z[:], t[:6])
	}
}

// feSquareLoop sets z = x² with a dedicated symmetric squaring: the 15
// off-diagonal products x_i·x_j (i < j) are computed once and doubled by a
// one-bit shift, then the 6 diagonal squares are folded in — 21 wide
// multiplications against feMul's 36 — followed by a separate 6-step
// Montgomery reduction of the 12-limb square (SOS). x must be < p; the
// result is fully reduced. Every point doubling in the wNAF/GLV/MSM paths
// bottoms out here, which is why the ~15% it saves over feMul(z, x, x) is
// now worth the extra trusted code (BenchmarkFeSquare vs BenchmarkFeMul).
// Like feMulLoop it is the retained differential oracle for the unrolled
// feSquare in fp_unrolled.go.
func feSquareLoop(z, x *fe) {
	var t [12]uint64

	// Off-diagonal partial products: t[i+j] += x[i]·x[j] for i < j.
	for i := 0; i < 5; i++ {
		var c uint64
		for j := i + 1; j < 6; j++ {
			hi, lo := bits.Mul64(x[i], x[j])
			var cr uint64
			lo, cr = bits.Add64(lo, t[i+j], 0)
			hi += cr
			lo, cr = bits.Add64(lo, c, 0)
			hi += cr
			t[i+j] = lo
			c = hi
		}
		t[i+6] = c
	}

	// Double the cross products (they occupy t[1..10]; x < 2^381 so the
	// shifted value still fits 12 limbs).
	for i := 11; i > 0; i-- {
		t[i] = t[i]<<1 | t[i-1]>>63
	}
	t[0] = 0

	// Fold in the diagonal squares x[i]² at t[2i], t[2i+1].
	var c uint64
	for i := 0; i < 6; i++ {
		hi, lo := bits.Mul64(x[i], x[i])
		var cr uint64
		t[2*i], cr = bits.Add64(t[2*i], lo, c)
		hi += cr
		t[2*i+1], c = bits.Add64(t[2*i+1], hi, 0)
	}

	// Montgomery reduction of the 12-limb square: six steps, each folding
	// out the lowest live limb (x² < p² and Σ mᵢ·p·2^{64i} < 2^384·p keep
	// the running value under 2^766, so no carry escapes t[11]).
	for i := 0; i < 6; i++ {
		m := t[i] * montInv
		hi, lo := bits.Mul64(m, pLimbs[0])
		_, cr := bits.Add64(lo, t[i], 0)
		carry := hi + cr
		for j := 1; j < 6; j++ {
			hi, lo := bits.Mul64(m, pLimbs[j])
			var cc uint64
			lo, cc = bits.Add64(lo, t[i+j], 0)
			hi += cc
			lo, cc = bits.Add64(lo, carry, 0)
			hi += cc
			t[i+j] = lo
			carry = hi
		}
		t[i+6], cr = bits.Add64(t[i+6], carry, 0)
		for j := i + 7; j < 12 && cr != 0; j++ {
			t[j], cr = bits.Add64(t[j], 0, cr)
		}
	}

	// Result t[6..11] < 2p: one conditional subtraction.
	var r fe
	var b uint64
	r[0], b = bits.Sub64(t[6], pLimbs[0], 0)
	r[1], b = bits.Sub64(t[7], pLimbs[1], b)
	r[2], b = bits.Sub64(t[8], pLimbs[2], b)
	r[3], b = bits.Sub64(t[9], pLimbs[3], b)
	r[4], b = bits.Sub64(t[10], pLimbs[4], b)
	r[5], b = bits.Sub64(t[11], pLimbs[5], b)
	if b == 0 {
		*z = r
	} else {
		copy(z[:], t[6:])
	}
}

func TestUnrolledModulusConsts(t *testing.T) {
	if (fe{q0, q1, q2, q3, q4, q5}) != pLimbs {
		t.Fatal("fp_unrolled.go q-constants drifted from pLimbs")
	}
	if q5 >= 1<<61 {
		t.Fatal("no-carry CIOS precondition violated: top modulus word too large")
	}
}

// feEdgeCases returns raw limb vectors exercising the carry chains: 0, 1,
// p−1, p, p+1, 2^384−1, all-ones limbs, single high bits, and the
// Montgomery constants. Values ≥ p are legal for feMul's x operand only.
func feEdgeCases() []fe {
	pm1 := pLimbs
	pm1[0]--
	pp1 := pLimbs
	pp1[0]++
	return []fe{
		{},
		{1},
		pm1,
		pLimbs,
		pp1,
		{^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0)},
		{0, 0, 0, 0, 0, 1 << 63},
		{1 << 63, 0, 0, 0, 0, 0},
		feR,
		feR2,
	}
}

func feLess(x, y *fe) bool {
	var borrow uint64
	for i := 0; i < 6; i++ {
		_, borrow = bits.Sub64(x[i], y[i], borrow)
	}
	return borrow != 0
}

// mulKernel is one multiplier and its squarer.
type mulKernel struct {
	name string
	mul  func(z, x, y *fe)
	sq   func(z, x *fe)
}

// mulKernels lists the multipliers held to the loop oracles: the
// dispatching feMul/feSquare, the portable Go kernels, and, where the CPU
// has BMI2 and ADX, the assembly kernel called directly (squaring as x·x,
// as feSquare does).
func mulKernels() []mulKernel {
	ks := []mulKernel{
		{"feMul", feMul, feSquare},
		{"feMulGeneric", feMulGeneric, feSquareGeneric},
	}
	if useADX {
		ks = append(ks, mulKernel{"feMulADX", feMulADX, func(z, x *fe) { feMulADX(z, x, x) }})
	}
	return ks
}

// checkMul holds every kernel's x·y, into a fresh z and into z = x, to
// feMulLoop's. x may be any 384-bit value; y must be < p.
func checkMul(t testing.TB, x, y fe) {
	t.Helper()
	var want fe
	feMulLoop(&want, &x, &y)
	for _, k := range mulKernels() {
		var got fe
		k.mul(&got, &x, &y)
		alias := x
		k.mul(&alias, &alias, &y)
		if got != want || alias != want {
			t.Fatalf("%s(%x, %x) = %x (aliased %x), loop %x", k.name, x, y, got, alias, want)
		}
	}
}

// checkSquare holds every kernel's x², into a fresh z and in place, to
// feSquareLoop's. x must be < p.
func checkSquare(t testing.TB, x fe) {
	t.Helper()
	var want fe
	feSquareLoop(&want, &x)
	for _, k := range mulKernels() {
		var got fe
		k.sq(&got, &x)
		alias := x
		k.sq(&alias, &alias)
		if got != want || alias != want {
			t.Fatalf("%s square(%x) = %x (in place %x), loop %x", k.name, x, got, alias, want)
		}
	}
}

func TestFeMulUnrolledMatchesLoopEdges(t *testing.T) {
	edges := feEdgeCases()
	for _, x := range edges {
		for _, y := range edges {
			if feLess(&y, &pLimbs) { // y must be < p (the shared contract)
				checkMul(t, x, y)
			}
		}
		if feLess(&x, &pLimbs) {
			checkSquare(t, x)
		}
	}
}

func TestFeMulUnrolledMatchesLoopRandom(t *testing.T) {
	var buf [96]byte
	for i := 0; i < 2000; i++ {
		if _, err := rand.Read(buf[:]); err != nil {
			t.Fatal(err)
		}
		x, y, _ := decodeFuzzFe(buf[:])
		checkMul(t, x, y)
		checkSquare(t, y)
	}
}

// TestFeMulUnreducedOperand drives the x ≥ p half of the multiplier's
// contract (any 384-bit x) over the carry-chain edge vectors, where the
// final subtraction must be taken, against random reduced y.
func TestFeMulUnreducedOperand(t *testing.T) {
	rng := mrand.New(mrand.NewSource(0xf1))
	for _, x := range feEdgeCases() {
		for i := 0; i < 50; i++ {
			checkMul(t, x, ctRandFe(rng))
		}
	}
}

// decodeFuzzFe splits 96 fuzz bytes into (x, y) limb vectors with y
// reduced below p; x is left raw so the fuzzer explores the ≥ p range the
// feFromBytes/feReduceWide callers rely on.
func decodeFuzzFe(data []byte) (x, y fe, ok bool) {
	if len(data) < 96 {
		return x, y, false
	}
	for j := 0; j < 6; j++ {
		x[j] = binary.LittleEndian.Uint64(data[j*8:])
		y[j] = binary.LittleEndian.Uint64(data[48+j*8:])
	}
	for !feLess(&y, &pLimbs) {
		y[5] >>= 1
	}
	return x, y, true
}

func FuzzFeMulUnrolled(f *testing.F) {
	var seed [96]byte
	f.Add(seed[:])
	for i, e := range feEdgeCases() {
		var buf [96]byte
		for j := 0; j < 6; j++ {
			binary.LittleEndian.PutUint64(buf[j*8:], e[j])
			binary.LittleEndian.PutUint64(buf[48+j*8:], feEdgeCases()[len(feEdgeCases())-1-i][j])
		}
		f.Add(buf[:])
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, y, ok := decodeFuzzFe(data)
		if !ok {
			return
		}
		checkMul(t, x, y)
	})
}

func FuzzFeSquareUnrolled(f *testing.F) {
	var seed [96]byte
	f.Add(seed[:])
	f.Fuzz(func(t *testing.T, data []byte) {
		_, y, ok := decodeFuzzFe(data)
		if !ok {
			return
		}
		checkSquare(t, y)
	})
}

// TestCPUFeatureDetection holds useADX to the kernel's own reading of the
// CPU: on linux/amd64 it must be set exactly when /proc/cpuinfo lists
// both the adx and the bmi2 flag.
func TestCPUFeatureDetection(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		t.Skipf("reads /proc/cpuinfo on linux/amd64; this is %s/%s", runtime.GOOS, runtime.GOARCH)
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(info), "\n") {
		name, flags, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "flags" {
			continue
		}
		has := map[string]bool{}
		for _, f := range strings.Fields(flags) {
			has[f] = true
		}
		if want := has["adx"] && has["bmi2"]; useADX != want {
			t.Fatalf("useADX = %v, but /proc/cpuinfo has adx %v, bmi2 %v", useADX, has["adx"], has["bmi2"])
		}
		return
	}
	t.Fatal("no flags line in /proc/cpuinfo")
}
