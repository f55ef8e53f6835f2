package bls

// hash2curve_test.go verifies the RFC 9380 pipeline three ways:
//
//  1. KATs against the RFC's own appendix vectors: expand_message_xmd
//     (Appendix K.1, SHA-256 expander) and the full
//     BLS12381G1_XMD:SHA-256_SSWU_RO_ suite (Appendix J.9.1).
//  2. Internal consistency: SSWU outputs satisfy E''s equation, the
//     isogeny image satisfies E's, and cofactor clearing lands in the
//     order-r subgroup — a wrong curve parameter or isogeny coefficient
//     fails these on random inputs independently of the KATs.
//  3. Differential checks: hash_to_field against a math/big oracle, the
//     inversion-free SSWU + isogeny against the RFC's affine evaluation
//     (kept here as the oracle), and the legacy mode pinned to its seed
//     golden bytes.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/big"
	"strings"
	"testing"
)

// --- expand_message_xmd (RFC 9380 Appendix K.1) ---

const expanderDST = "QUUX-V01-CS02-with-expander-SHA256-128"

var xmdVectors = []struct {
	msg string
	n   int
	out string
}{
	{"", 0x20, "68a985b87eb6b46952128911f2a4412bbc302a9d759667f87f7a21d803f07235"},
	{"abc", 0x20, "d8ccab23b5985ccea865c6c97b6e5b8350e794e603b4b97902f53a8a0d605615"},
	{"abcdef0123456789", 0x20, "eff31487c770a893cfb36f912fbfcbff40d5661771ca4b2cb4eafe524333f5c1"},
	{"q128_" + strings.Repeat("q", 128), 0x20, "b23a1d2b4d97b2ef7785562a7e8bac7eed54ed6e97e29aa51bfe3f12ddad1ff9"},
	{"a512_" + strings.Repeat("a", 512), 0x20, "4623227bcc01293b8c130bf771da8c298dede7383243dc0993d2d94823958c4c"},
	{"", 0x80, "af84c27ccfd45d41914fdff5df25293e221afc53d8ad2ac06d5e3e29485dadbe" +
		"e0d121587713a3e0dd4d5e69e93eb7cd4f5df4cd103e188cf60cb02edc3edf18" +
		"eda8576c412b18ffb658e3dd6ec849469b979d444cf7b26911a08e63cf31f9dc" +
		"c541708d3491184472c2c29bb749d4286b004ceb5ee6b9a7fa5b646c993f0ced"},
}

func TestExpandMessageXMDVectors(t *testing.T) {
	for _, v := range xmdVectors {
		got := expandMessageXMD([]byte(v.msg), expanderDST, v.n)
		if hex.EncodeToString(got) != v.out {
			t.Errorf("expand_message_xmd(%q, %d):\n got %x\nwant %s", v.msg, v.n, got, v.out)
		}
	}
}

func TestExpandMessageXMDOversizeDST(t *testing.T) {
	// A >255-byte DST must be replaced by H("H2C-OVERSIZE-DST-" || DST)
	// and produce the same output as expanding under that reduced tag.
	long := strings.Repeat("x", 300)
	h := sha256.New()
	h.Write([]byte("H2C-OVERSIZE-DST-"))
	h.Write([]byte(long))
	reduced := h.Sum(nil)
	got := expandMessageXMD([]byte("msg"), long, 0x20)
	want := expandMessageXMD([]byte("msg"), string(reduced), 0x20)
	if !bytes.Equal(got, want) {
		t.Fatal("oversize DST not reduced per RFC 9380 §5.3.3")
	}
}

// --- hash_to_field differential against math/big ---

func TestHashToFieldMatchesBigInt(t *testing.T) {
	const dst = "safetypin-hash-to-field-test"
	for _, msg := range []string{"", "a", "the shared log-update tuple"} {
		var got [2]fe
		hashToFieldFp(got[:], []byte(msg), dst)
		uniform := expandMessageXMD([]byte(msg), dst, 2*l2cBytes)
		for i := 0; i < 2; i++ {
			want := new(big.Int).SetBytes(uniform[i*l2cBytes : (i+1)*l2cBytes])
			want.Mod(want, pMod)
			var buf [fpSize]byte
			feToBytes(buf[:], &got[i])
			if new(big.Int).SetBytes(buf[:]).Cmp(want) != 0 {
				t.Fatalf("hash_to_field(%q)[%d] disagrees with big.Int oracle", msg, i)
			}
		}
	}
}

// --- map_to_curve: the affine oracle and internal consistency ---

// sswuAffine is the RFC's straight-line simplified SWU with its final
// division (Appendix F.2, as written): the form mapToCurveSSWU took before
// it returned x as a fraction, kept as the differential oracle for the
// inversion-free map.
func sswuAffine(u *fe) (x, y fe) {
	var tv1, tv2, tv3, tv4, tv5, tv6 fe
	feSquare(&tv1, u)
	feMul(&tv1, &tv1, &sswuZ)
	feSquare(&tv2, &tv1)
	feAdd(&tv2, &tv2, &tv1)
	feAdd(&tv3, &tv2, &feR)
	feMul(&tv3, &tv3, &sswuB)
	var negTv2 fe
	feNeg(&negTv2, &tv2)
	tv4 = sswuZ
	feCMov(&tv4, &negTv2, 1^feIsZeroMask(&tv2))
	feMul(&tv4, &tv4, &sswuA)
	feSquare(&tv2, &tv3)
	feSquare(&tv6, &tv4)
	feMul(&tv5, &tv6, &sswuA)
	feAdd(&tv2, &tv2, &tv5)
	feMul(&tv2, &tv2, &tv3)
	feMul(&tv6, &tv6, &tv4)
	feMul(&tv5, &tv6, &sswuB)
	feAdd(&tv2, &tv2, &tv5)
	feMul(&x, &tv1, &tv3)
	y1, isGx1Square := sqrtRatio3mod4(&tv2, &tv6)
	feMul(&y, &tv1, u)
	feMul(&y, &y, &y1)
	feCMov(&x, &tv3, isGx1Square)
	feCMov(&y, &y1, isGx1Square)
	feCNeg(&y, &y, feSgn0(u)^feSgn0(&y))
	var inv fe
	feInv(&inv, &tv4)
	feMul(&x, &x, &inv)
	return x, y
}

// evalPoly evaluates a little-endian coefficient polynomial at x (Horner).
func evalPoly(coeffs []fe, x *fe) fe {
	acc := coeffs[len(coeffs)-1]
	for i := len(coeffs) - 2; i >= 0; i-- {
		feMul(&acc, &acc, x)
		feAdd(&acc, &acc, &coeffs[i])
	}
	return acc
}

// isoMapAffine is the 11-isogeny on affine coordinates, x_num/x_den and
// y·y_num/y_den with one shared inversion — the evaluation isoMapG1
// replaced, kept as its differential oracle.
func isoMapAffine(xp, yp *fe) (x, y fe) {
	xn := evalPoly(iso11XNum, xp)
	xd := evalPoly(iso11XDen, xp)
	yn := evalPoly(iso11YNum, xp)
	yd := evalPoly(iso11YDen, xp)
	var prod, inv fe
	feMul(&prod, &xd, &yd)
	feInv(&inv, &prod)
	feMul(&x, &xn, &inv)
	feMul(&x, &x, &yd)
	feMul(&y, &yn, &inv)
	feMul(&y, &y, &xd)
	feMul(&y, &y, yp)
	return x, y
}

// onIsoCurve reports whether (x, y) satisfies E': y² = x³ + A'x + B'.
func onIsoCurve(x, y *fe) bool {
	var lhs, rhs, ax fe
	feSquare(&lhs, y)
	feSquare(&rhs, x)
	feMul(&rhs, &rhs, x)
	feMul(&ax, &sswuA, x)
	feAdd(&rhs, &rhs, &ax)
	feAdd(&rhs, &rhs, &sswuB)
	return lhs.equal(&rhs)
}

// sswuEdgeInputs are the map's exceptional inputs: u = 0 and u = ±√(−1/Z),
// the three values with tv2 = Z²u⁴ + Zu² = 0 (√(−Z) exists, so −1/Z is a
// square), where the branch-free CMOV(Z, −tv2, …) path is taken.
func sswuEdgeInputs(t *testing.T) []fe {
	var zInv, u, negU fe
	feInv(&zInv, &sswuZ)
	feMul(&u, &sswuC2, &zInv) // (√(−Z)/Z)² = −1/Z
	feNeg(&negU, &u)
	for _, v := range []*fe{&u, &negU} {
		var tv1, tv2 fe
		feSquare(&tv1, v)
		feMul(&tv1, &tv1, &sswuZ)
		feSquare(&tv2, &tv1)
		feAdd(&tv2, &tv2, &tv1)
		if !tv2.isZero() {
			t.Fatal("u = √(−1/Z) does not zero tv2")
		}
	}
	return []fe{{}, u, negU}
}

// TestSSWUIsogenyProjectiveMatchesAffine pins the inversion-free map and
// isogeny to the affine oracle over random u and the tv2 = 0 inputs: the
// same E' point, the same image on E, and the same hash.
func TestSSWUIsogenyProjectiveMatchesAffine(t *testing.T) {
	var us [64]fe
	hashToFieldFp(us[:], []byte("sswu-projective"), "safetypin-test")
	for i, u := range append(sswuEdgeInputs(t), us[:]...) {
		wx, wy := sswuAffine(&u)
		if !onIsoCurve(&wx, &wy) {
			t.Fatalf("input %d: SSWU output not on E'", i)
		}
		xn, xd, y := mapToCurveSSWU(&u)
		var cross fe
		feMul(&cross, &wx, &xd)
		if xd.isZero() || cross != xn || y != wy {
			t.Fatalf("input %d: fraction (%x/%x, %x) is not the affine point (%x, %x)", i, xn, xd, y, wx, wy)
		}
		ax, ay := isoMapAffine(&wx, &wy)
		p := isoMapG1(&xn, &xd, &y)
		if px, py, inf := p.affine(); inf || px != ax || py != ay {
			t.Fatalf("input %d: Jacobian isogeny image differs from the affine oracle", i)
		}
	}
	for _, msg := range []string{"", "abc", "the shared log-update tuple"} {
		var u [2]fe
		hashToFieldFp(u[:], []byte(msg), rfcDST)
		want := g1Infinity()
		for i := range u {
			x, y := sswuAffine(&u[i])
			ix, iy := isoMapAffine(&x, &y)
			want = want.Add(g1FromAffine(ix, iy))
		}
		want = clearCofactorG1(want)
		if got := hashToG1RFC(rfcDST, []byte(msg)); !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("hash of %q differs from the affine pipeline", msg)
		}
	}
}

func TestSSWUAndIsogenyConsistency(t *testing.T) {
	// Random-ish field elements via the expander itself.
	var us [8]fe
	hashToFieldFp(us[:], []byte("sswu-consistency"), "safetypin-test")
	for i := range us {
		x, y := sswuAffine(&us[i])
		if !onIsoCurve(&x, &y) {
			t.Fatalf("SSWU output %d not on the 11-isogenous curve E'", i)
		}
		// sgn0(y) must match sgn0(u) per the RFC sign fix-up.
		if feSgn0(&us[i]) != feSgn0(&y) {
			t.Fatalf("SSWU output %d has wrong sign", i)
		}
		xn, xd, yy := mapToCurveSSWU(&us[i])
		p := isoMapG1(&xn, &xd, &yy)
		if !p.OnCurve() {
			t.Fatalf("isogeny image %d not on E — isogeny coefficients corrupt", i)
		}
		cleared := clearCofactorG1(p)
		if cleared.IsInfinity() || !cleared.InSubgroup() {
			t.Fatalf("cofactor-cleared point %d not in the order-r subgroup", i)
		}
	}
}

func TestSSWUExceptionalCase(t *testing.T) {
	// tv2 = 0 (u = 0 or u² = −1/Z) exercises the CMOV(Z, −tv2, …)
	// branchless exceptional path; the result must still be a valid E'
	// point whose isogeny image lies on E.
	for i, u := range sswuEdgeInputs(t) {
		x, y := sswuAffine(&u)
		if !onIsoCurve(&x, &y) {
			t.Fatalf("SSWU(edge %d) not on E'", i)
		}
		xn, xd, yy := mapToCurveSSWU(&u)
		if p := isoMapG1(&xn, &xd, &yy); p.IsInfinity() || !p.OnCurve() {
			t.Fatalf("isogeny image of edge %d not a finite point of E", i)
		}
	}
	if !hashToG1RFC("dst", nil).InSubgroup() {
		t.Fatal("hash of empty message broken")
	}
}

// --- full-suite KATs (RFC 9380 Appendix J.9.1) ---

// rfcDST is the RFC's own test DST for BLS12381G1_XMD:SHA-256_SSWU_RO_.
const rfcDST = "QUUX-V01-CS02-with-BLS12381G1_XMD:SHA-256_SSWU_RO_"

var hashToCurveVectors = []struct {
	msg    string
	px, py string
}{
	{
		"",
		"052926add2207b76ca4fa57a8734416c8dc95e24501772c814278700eed6d1e4e8cf62d9c09db0fac349612b759e79a1",
		"08ba738453bfed09cb546dbb0783dbb3a5f1f566ed67bb6be0e8c67e2e81a4cc68ee29813bb7994998f3eae0c9c6a265",
	},
	{
		"abc",
		"03567bc5ef9c690c2ab2ecdf6a96ef1c139cc0b2f284dca0a9a7943388a49a3aee664ba5379a7655d3c68900be2f6903",
		"0b9c15f3fe6e5cf4211f346271d7b01c8f3b28be689c8429c85b67af215533311f0b8dfaaa154fa6b88176c229f2885d",
	},
	{
		"abcdef0123456789",
		"11e0b079dea29a68f0383ee94fed1b940995272407e3bb916bbf268c263ddd57a6a27200a784cbc248e84f357ce82d98",
		"03a87ae2caf14e8ee52e51fa2ed8eefe80f02457004ba4d486d6aa1f517c0889501dc7413753f9599b099ebcbbd2d709",
	},
	{
		"q128_" + strings.Repeat("q", 128),
		"15f68eaa693b95ccb85215dc65fa81038d69629f70aeee0d0f677cf22285e7bf58d7cb86eefe8f2e9bc3f8cb84fac488",
		"1807a1d50c29f430b8cafc4f8638dfeeadf51211e1602a5f184443076715f91bb90a48ba1e370edce6ae1062f5e6dd38",
	},
	{
		"a512_" + strings.Repeat("a", 512),
		"082aabae8b7dedb0e78aeb619ad3bfd9277a2f77ba7fad20ef6aabdc6c31d19ba5a6d12283553294c1825c4b3ca2dcfe",
		"05b84ae5a942248eea39e1d91030458c40153f3b654ab7872d779ad1e942856a20c438e8d99bc8abfbf74729ce1f7ac8",
	},
}

func TestHashToCurveRFCVectors(t *testing.T) {
	for _, v := range hashToCurveVectors {
		p := HashToG1(HashRFC9380, rfcDST, []byte(v.msg))
		ax, ay, inf := p.affine()
		if inf {
			t.Fatalf("msg %q hashed to infinity", v.msg)
		}
		var xb, yb [fpSize]byte
		feToBytes(xb[:], &ax)
		feToBytes(yb[:], &ay)
		if hex.EncodeToString(xb[:]) != v.px || hex.EncodeToString(yb[:]) != v.py {
			t.Errorf("hash_to_curve(%.16q…):\n got x %x\nwant x %s\n got y %x\nwant y %s",
				v.msg, xb, v.px, yb, v.py)
		}
		if !p.InSubgroup() {
			t.Errorf("msg %q: KAT point not in subgroup", v.msg)
		}
	}
}

// --- the retired legacy hash ---

// TestLegacyHashGolden is a must-reject golden: the seed's try-and-increment
// hash of ("kat-domain", "kat-message") is not what HashToG1 produces.
func TestLegacyHashGolden(t *testing.T) {
	got := hex.EncodeToString(HashToG1(HashRFC9380, "kat-domain", []byte("kat-message")).Bytes())
	if got == seedGolden.hash {
		t.Fatal("HashToG1 reproduced the retired legacy hash")
	}
}

// --- constant-time helper sanity ---

func TestCTHelpers(t *testing.T) {
	var a, b fe
	feFromUint64(&a, 7)
	feFromUint64(&b, 9)
	if feEqMask(&a, &b) != 0 || feEqMask(&a, &a) != 1 {
		t.Fatal("feEqMask broken")
	}
	var z fe
	if feIsZeroMask(&z) != 1 || feIsZeroMask(&a) != 0 {
		t.Fatal("feIsZeroMask broken")
	}
	c := a
	feCMov(&c, &b, 0)
	if !c.equal(&a) {
		t.Fatal("feCMov moved on cond=0")
	}
	feCMov(&c, &b, 1)
	if !c.equal(&b) {
		t.Fatal("feCMov did not move on cond=1")
	}
	// The Fp2 lift the G2 comb scans its table with.
	x2, y2 := fe2{c0: a, c1: b}, fe2{c1: a}
	if fe2IsZeroMask(&fe2{}) != 1 || fe2IsZeroMask(&x2) != 0 || fe2IsZeroMask(&y2) != 0 {
		t.Fatal("fe2IsZeroMask broken")
	}
	c2 := x2
	fe2CMov(&c2, &y2, 0)
	if c2 != x2 {
		t.Fatal("fe2CMov moved on cond=0")
	}
	fe2CMov(&c2, &y2, 1)
	if c2 != y2 {
		t.Fatal("fe2CMov did not move on cond=1")
	}
	// feNeg: x + (−x) = 0, and −0 is the canonical zero.
	var n1, n2 fe
	feNeg(&n1, &a)
	feAdd(&n2, &n1, &a)
	if !n2.isZero() {
		t.Fatal("a + feNeg(a) != 0")
	}
	feNeg(&n2, &z)
	if !n2.isZero() {
		t.Fatal("feNeg(0) not canonical zero")
	}
	// feCNeg: cond=0 copies, cond=1 negates.
	feCNeg(&c, &a, 0)
	if !c.equal(&a) {
		t.Fatal("feCNeg negated on cond=0")
	}
	feCNeg(&c, &a, 1)
	if !c.equal(&n1) {
		t.Fatal("feCNeg did not negate on cond=1")
	}
	// sqrtRatio3mod4 against known squares: u = 4, v = 1 → y = ±2.
	var four, one, two fe
	feFromUint64(&four, 4)
	one = feR
	feFromUint64(&two, 2)
	y, isQR := sqrtRatio3mod4(&four, &one)
	if isQR != 1 {
		t.Fatal("4 not recognized as a square")
	}
	var ysq fe
	feSquare(&ysq, &y)
	if !ysq.equal(&four) {
		t.Fatal("sqrtRatio returned a non-root")
	}
}

func BenchmarkHashToG1RFC9380(b *testing.B) {
	msg := []byte("the shared log-update tuple")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = HashToG1(HashRFC9380, sigDomain, msg)
	}
}
