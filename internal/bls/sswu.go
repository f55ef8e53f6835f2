package bls

// sswu.go implements the constant-time simplified Shallue–van de Woestijne–
// Ulas map (RFC 9380 §6.6.2, straight-line version from Appendix F.2) onto
// E': y² = x³ + A'x + B', the curve 11-isogenous to BLS12-381's E used by
// the BLS12381G1_XMD:SHA-256_SSWU_RO_ suite (E itself has j-invariant 0, so
// SSWU cannot apply directly). No instruction depends on the value being
// hashed: the quadratic-residue split, the sign fix-up, and the exceptional
// tv2 = 0 case are all CMOV/mask selections, and the only exponentiation is
// the square root's (public exponent (p−3)/4).

// E' parameters from RFC 9380 §8.8.1.
var (
	// sswuA is A' of the 11-isogenous curve.
	sswuA fe
	// sswuB is B' of the 11-isogenous curve.
	sswuB fe
	// sswuZ is the SSWU non-square parameter Z = 11.
	sswuZ fe
	// sswuC2 is sqrt(-Z), the sqrt_ratio_3mod4 constant c2 — derived at
	// init from Z so the only trusted inputs are A', B', and Z itself.
	sswuC2 fe
)

func init() {
	initFieldConstants()
	sswuA = mustFe("00144698a3b8e9433d693a02c96d4982b0ea985383ee66a8d8e8981aefd881ac98936f8da0e0f97f5cf428082d584c1d")
	sswuB = mustFe("12e2908d11688030018b12e8753eee3b2016c1f0f24f4070a0b9c14fcef35ef55a23215a316ceaa5d1cc48e98e172be0")
	feFromUint64(&sswuZ, 11)
	var negZ fe
	feNeg(&negZ, &sswuZ)
	if !feSqrt(&sswuC2, &negZ) {
		panic("bls: -Z is not a square; SSWU constants corrupt")
	}
}

// --- constant-time limb helpers ---
//
// These are the masked primitives the hash-to-curve layer is built from.
// Conditions are uint64 0/1; a condition derived from field data must come
// from one of the mask functions below, never from a comparison branch.

// ctMask expands a 0/1 condition to 0x00…0/0xff…f.
func ctMask(cond uint64) uint64 { return -cond }

// ctNonzero64 returns 1 if v != 0, else 0, without branching.
func ctNonzero64(v uint64) uint64 { return (v | -v) >> 63 }

// ct64Eq returns 1 iff a == b, without branching.
func ct64Eq(a, b uint64) uint64 { return 1 ^ ctNonzero64(a^b) }

// feCMov sets z = x when cond = 1 and leaves z unchanged when cond = 0.
func feCMov(z, x *fe, cond uint64) {
	m := ctMask(cond)
	for i := range z {
		z[i] ^= m & (z[i] ^ x[i])
	}
}

// feIsZeroMask returns 1 iff x = 0. Field elements are kept fully reduced
// (every producer outputs a canonical value < p), so the limb comparison is
// a value comparison.
func feIsZeroMask(x *fe) uint64 {
	return 1 ^ ctNonzero64(x[0]|x[1]|x[2]|x[3]|x[4]|x[5])
}

// feEqMask returns 1 iff x = y (canonical representations).
func feEqMask(x, y *fe) uint64 {
	return 1 ^ ctNonzero64((x[0]^y[0])|(x[1]^y[1])|(x[2]^y[2])|(x[3]^y[3])|(x[4]^y[4])|(x[5]^y[5]))
}

// feCNeg sets z = −x when cond = 1, z = x when cond = 0.
func feCNeg(z, x *fe, cond uint64) {
	var n fe
	feNeg(&n, x)
	*z = *x
	feCMov(z, &n, cond)
}

// feSgn0 is sgn0(x) from RFC 9380 §4.1: the parity of the canonical
// (non-Montgomery) representation of x.
func feSgn0(x *fe) uint64 {
	var t fe
	feMul(&t, x, &feRawOne) // out of Montgomery form; fully reduced
	return t[0] & 1
}

// sqrtRatio3mod4 is sqrt_ratio(u, v) optimized for p ≡ 3 (mod 4)
// (RFC 9380 Appendix F.2.1.2): it returns y and isQR = 1 when u/v is
// square with y = sqrt(u/v), else isQR = 0 with y = sqrt(Z·u/v). One
// exponentiation by the public constant (p−3)/4, on its fixed addition
// chain (feExpPM34), does all the work.
func sqrtRatio3mod4(u, v *fe) (y fe, isQR uint64) {
	var tv1, tv2, tv3, y1, y2 fe
	feSquare(&tv1, v)       // v²
	feMul(&tv2, u, v)       // u·v
	feMul(&tv1, &tv1, &tv2) // u·v³
	feExpPM34(&y1, &tv1)
	feMul(&y1, &y1, &tv2)    // y1 = u·v³·(u·v³)^((p−3)/4) · … = candidate sqrt(u/v)
	feMul(&y2, &y1, &sswuC2) // candidate for the non-residue branch
	feSquare(&tv3, &y1)
	feMul(&tv3, &tv3, v) // y1²·v ?= u decides which candidate is real
	isQR = feEqMask(&tv3, u)
	y = y2
	feCMov(&y, &y1, isQR)
	return y, isQR
}

// checkSqrtRatio decides sqrt_ratio(u, v)'s isQR from a claimed root y
// instead of computing one: y²·v = u says u/v is square, y²·v = Z·u that
// it is not. Z is a non-square and v ≠ 0, so for u ≠ 0 at most one holds,
// and it is the RFC's answer; for u = 0 both hold with y = 0, and isQR = 1
// as sqrtRatio3mod4 returns it. ok = 0 when neither holds. Two products,
// one squaring: the claim replaces the (p−3)/4 exponentiation.
func checkSqrtRatio(u, v, y *fe) (isQR, ok uint64) {
	var t, zu fe
	feSquare(&t, y)
	feMul(&t, &t, v)
	feMul(&zu, &sswuZ, u)
	isQR = feEqMask(&t, u)
	return isQR, isQR | feEqMask(&t, &zu)
}

// mapToCurveSSWU maps a field element to a point (xn/xd, y) of E'
// (RFC 9380 Appendix F.2 straight-line simplified SWU). x is returned as
// the fraction the RFC divides out at the end, so the map performs no
// inversion; isoMapG1 consumes the fraction as it stands. The output is
// never the point at infinity: xd = tv4 = A'·CMOV(Z, −tv2, tv2 ≠ 0) is
// nonzero for every u. The affine form (the RFC's last step) is the test
// oracle in hash2curve_test.go.
//
// With root nil the map computes sqrt_ratio(tv2, tv6) itself. Otherwise
// *root is a claimed output of it, checked by checkSqrtRatio in place of
// the exponentiation, and ok = 0 if it is no such root. Either sign of a
// root gives the same point: the sgn0 fix-up below decides the sign.
// sqrtOut is the root the map used, the value a prover ships as the hint.
func mapToCurveSSWU(u, root *fe) (xn, xd, y, sqrtOut fe, ok uint64) {
	var tv1, tv2, tv3, tv4, tv5, tv6 fe
	feSquare(&tv1, u)
	feMul(&tv1, &tv1, &sswuZ) // tv1 = Z·u²
	feSquare(&tv2, &tv1)
	feAdd(&tv2, &tv2, &tv1) // tv2 = tv1² + tv1
	feAdd(&tv3, &tv2, &feR) // tv3 = tv2 + 1
	feMul(&tv3, &tv3, &sswuB)
	// tv4 = CMOV(Z, −tv2, tv2 ≠ 0) — the tv2 = 0 exceptional case.
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
	feAdd(&tv2, &tv2, &tv5) // tv2 = g(x1)·tv6 numerator pack
	feMul(&xn, &tv1, &tv3)  // x-numerator candidate for the non-square branch
	var isGx1Square uint64
	if root == nil {
		sqrtOut, isGx1Square = sqrtRatio3mod4(&tv2, &tv6)
		ok = 1
	} else {
		sqrtOut = *root
		isGx1Square, ok = checkSqrtRatio(&tv2, &tv6, &sqrtOut)
	}
	feMul(&y, &tv1, u)
	feMul(&y, &y, &sqrtOut) // y-candidate for the non-square branch
	feCMov(&xn, &tv3, isGx1Square)
	feCMov(&y, &sqrtOut, isGx1Square)
	// Fix the sign: sgn0(y) must equal sgn0(u).
	e1 := 1 ^ (feSgn0(u) ^ feSgn0(&y)) // 1 when signs already agree
	feCNeg(&y, &y, 1^e1)
	return xn, tv4, y, sqrtOut, ok
}
