package bls

import (
	"encoding/hex"
	"errors"
	"fmt"
)

// Curve arithmetic for BLS12-381 over the limb-based Montgomery field.
// Points are held in Jacobian projective coordinates (x/z², y/z³), so Add
// and double cost a handful of field multiplications instead of the
// per-step ModInverse the old affine chord-and-tangent code paid; the one
// inversion happens when a point is serialized or compared. z = 0 encodes
// the point at infinity, so the zero value of G1/G2 is the identity.

// mustFe parses a 96-hex-digit field element into Montgomery form.
func mustFe(h string) fe {
	b, err := hex.DecodeString(h)
	if err != nil || len(b) != fpSize {
		panic("bls: bad fe constant " + h)
	}
	if !feValidBytes(b) {
		panic("bls: fe constant out of range " + h)
	}
	var z fe
	feFromBytes(&z, b)
	return z
}

// Curve coefficients: b = 4 on G1, b' = 4(1+u) on the twist.
var (
	feB  = func() fe { var z fe; feFromUint64(&z, 4); return z }()
	fe2B = func() fe2 {
		var z fe2
		feFromUint64(&z.c0, 4)
		feFromUint64(&z.c1, 4)
		return z
	}()
)

// G1 is a point on E(Fp): y² = x³ + 4, in Jacobian coordinates. The zero
// value is the point at infinity.
type G1 struct {
	x, y, z fe
}

// G2 is a point on the twist E'(Fp2): y² = x³ + 4(u+1), in Jacobian
// coordinates. The zero value is the point at infinity.
type G2 struct {
	x, y, z fe2
}

func g1Infinity() G1 { return G1{} }
func g2Infinity() G2 { return G2{} }

// g1FromAffine builds a point from affine Montgomery coordinates.
func g1FromAffine(x, y fe) G1 {
	return G1{x: x, y: y, z: feR}
}

func g2FromAffine(x, y fe2) G2 {
	var one fe2
	one.setOne()
	return G2{x: x, y: y, z: one}
}

// G1Generator returns the standard G1 base point.
func G1Generator() G1 {
	return g1FromAffine(
		mustFe("17f1d3a73197d7942695638c4fa9ac0fc3688c4f9774b905a14e3a3f171bac586c55e83ff97a1aeffb3af00adb22c6bb"),
		mustFe("08b3f481e3aaa0f1a09e30ed741d8ae4fcf5e095d5d00af600db18cb2c04b3edd03cc744a2888ae40caa232946c5e7e1"),
	)
}

// G2Generator returns the standard G2 base point.
func G2Generator() G2 {
	return g2FromAffine(
		fe2{
			c0: mustFe("024aa2b2f08f0a91260805272dc51051c6e47ad4fa403b02b4510b647ae3d1770bac0326a805bbefd48056c8c121bdb8"),
			c1: mustFe("13e02b6052719f607dacd3a088274f65596bd0d09920b61ab5da61bbdc7f5049334cf11213945d57e5ac7d055d042b7e"),
		},
		fe2{
			c0: mustFe("0ce5d527727d6e118cc9cdc6da2e351aadfd9baa8cbdd3a76d429a695160d12c923ac9cc3baca289e193548608b82801"),
			c1: mustFe("0606c4a02ea734cc32acd2b02bc28b99cb3e287e85a763af267492ab572e99ab3f370d275cec1da1aaa9075ff05f79be"),
		},
	)
}

// --- G1 arithmetic ---

// IsInfinity reports whether the point is the identity.
func (p G1) IsInfinity() bool { return p.z.isZero() }

// affine returns the affine coordinates; inf reports the identity. Points
// built by g1FromAffine (deserialization, batch normalization) keep Z = 1
// and skip the inversion.
func (p G1) affine() (ax, ay fe, inf bool) {
	if p.IsInfinity() {
		return fe{}, fe{}, true
	}
	if p.z.equal(&feR) {
		return p.x, p.y, false
	}
	var zi, zi2, zi3 fe
	feInv(&zi, &p.z)
	feSquare(&zi2, &zi)
	feMul(&zi3, &zi2, &zi)
	feMul(&ax, &p.x, &zi2)
	feMul(&ay, &p.y, &zi3)
	return ax, ay, false
}

// OnCurve reports whether the point satisfies y² = x³ + 4, checked
// projectively (Y² = X³ + 4Z⁶) — no inversion.
func (p G1) OnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	var lhs, rhs, z2, z6 fe
	feSquare(&lhs, &p.y)
	feSquare(&rhs, &p.x)
	feMul(&rhs, &rhs, &p.x)
	feSquare(&z2, &p.z)
	feSquare(&z6, &z2)
	feMul(&z6, &z6, &z2)
	feMul(&z6, &z6, &feB)
	feAdd(&rhs, &rhs, &z6)
	return lhs.equal(&rhs)
}

// Equal reports point equality (cross-multiplied, no inversion).
func (p G1) Equal(q G1) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	var z1z1, z2z2, a, b fe
	feSquare(&z1z1, &p.z)
	feSquare(&z2z2, &q.z)
	feMul(&a, &p.x, &z2z2)
	feMul(&b, &q.x, &z1z1)
	if !a.equal(&b) {
		return false
	}
	feMul(&z2z2, &z2z2, &q.z)
	feMul(&z1z1, &z1z1, &p.z)
	feMul(&a, &p.y, &z2z2)
	feMul(&b, &q.y, &z1z1)
	return a.equal(&b)
}

// Neg returns −p.
func (p G1) Neg() G1 {
	if p.IsInfinity() {
		return p
	}
	out := p
	feNeg(&out.y, &p.y)
	return out
}

// The G1 group law. g1Double, g1Add and g1AddMixed (and Add, which
// returns the sum) branch on public data only: infinity inputs, and the
// one exceptional case of each addition formula, q = ±p.
// The formulas themselves are branch-free: g1DoubleJac, g1AddJac and
// g1AddMixedJac run one assembly kernel each on ADX hosts
// (fp_mul_amd64.s) and the Go bodies g1DoubleGeneric, g1AddGeneric and
// g1AddMixedGeneric elsewhere. Both addition formulas give Z3 = 2·Z1·Z2·H
// (Z2 = 1 for the mixed one), so from finite inputs a zero Z3 means
// H = 0, the same affine x, and is the only signal the wrappers need to
// fall back to Equal and the doubling.

// g1Double sets r = 2p; r may alias p. Infinity and y = 0 (which no point
// of odd order has) give the identity.
func g1Double(r, p *G1) {
	if p.IsInfinity() || p.y.isZero() {
		*r = G1{}
		return
	}
	g1DoubleJac(r, p)
}

// g1DoubleJac sets r = 2p by dbl-2009-l (g1DoubleGeneric) with no branch
// on the point: Z = 0 gives Z3 = 0.
func g1DoubleJac(r, p *G1) {
	if useADX {
		g1DoubleADX(r, p)
		return
	}
	g1DoubleGeneric(r, p)
}

// g1DoubleGeneric sets r = 2p by "dbl-2009-l" for a = 0 (2M + 5S); r may
// alias p. It is g1DoubleADX's Go body.
func g1DoubleGeneric(r, p *G1) {
	var a, b, c, d, e, f fe
	feSquare(&a, &p.x) // A = X²
	feSquare(&b, &p.y) // B = Y²
	feSquare(&c, &b)   // C = B²
	feAdd(&d, &p.x, &b)
	feSquare(&d, &d)
	feSub(&d, &d, &a)
	feSub(&d, &d, &c)
	feDouble(&d, &d) // D = 2((X+B)²−A−C)
	feDouble(&e, &a)
	feAdd(&e, &e, &a) // E = 3A
	feSquare(&f, &e)  // F = E²
	var out G1
	feSub(&out.x, &f, &d)
	feSub(&out.x, &out.x, &d) // X3 = F − 2D
	feSub(&out.y, &d, &out.x)
	feMul(&out.y, &out.y, &e)
	feDouble(&c, &c)
	feDouble(&c, &c)
	feDouble(&c, &c)          // 8C
	feSub(&out.y, &out.y, &c) // Y3 = E(D−X3) − 8C
	feMul(&out.z, &p.y, &p.z)
	feDouble(&out.z, &out.z) // Z3 = 2YZ
	*r = out
}

// Add returns p + q (general Jacobian addition).
func (p G1) Add(q G1) G1 {
	var out G1
	g1Add(&out, &p, &q)
	return out
}

// g1Add sets r = p + q; r may alias p or q.
func g1Add(r, p, q *G1) {
	if p.IsInfinity() {
		*r = *q
		return
	}
	if q.IsInfinity() {
		*r = *p
		return
	}
	var out G1
	g1AddJac(&out, p, q)
	if out.z.isZero() { // q = ±p
		if p.Equal(*q) {
			g1Double(r, p)
			return
		}
		*r = G1{}
		return
	}
	*r = out
}

// g1AddJac sets r = p + q by add-2007-bl (g1AddGeneric) with no branch on
// the points; Z3 = 0 when either is at infinity or q = ±p.
func g1AddJac(r, p, q *G1) {
	if useADX {
		g1AddADX(r, p, q)
		return
	}
	g1AddGeneric(r, p, q)
}

// g1AddGeneric sets r = p + q by "add-2007-bl" (11M + 5S); r may alias p
// or q. It is g1AddADX's Go body.
func g1AddGeneric(r, p, q *G1) {
	var z1z1, z2z2, u1, u2, s1, s2 fe
	feSquare(&z1z1, &p.z)
	feSquare(&z2z2, &q.z)
	feMul(&u1, &p.x, &z2z2)
	feMul(&u2, &q.x, &z1z1)
	feMul(&s1, &z2z2, &q.z)
	feMul(&s1, &s1, &p.y)
	feMul(&s2, &z1z1, &p.z)
	feMul(&s2, &s2, &q.y)
	var h, i, j, rr, v fe
	feSub(&h, &u2, &u1)
	feDouble(&i, &h)
	feSquare(&i, &i) // I = (2H)²
	feMul(&j, &h, &i)
	feSub(&rr, &s2, &s1)
	feDouble(&rr, &rr)
	feMul(&v, &u1, &i)
	var out G1
	feSquare(&out.x, &rr)
	feSub(&out.x, &out.x, &j)
	feSub(&out.x, &out.x, &v)
	feSub(&out.x, &out.x, &v) // X3 = r² − J − 2V
	feSub(&out.y, &v, &out.x)
	feMul(&out.y, &out.y, &rr)
	feMul(&s1, &s1, &j)
	feDouble(&s1, &s1)
	feSub(&out.y, &out.y, &s1) // Y3 = r(V−X3) − 2S1·J
	feAdd(&out.z, &p.z, &q.z)
	feSquare(&out.z, &out.z)
	feSub(&out.z, &out.z, &z1z1)
	feSub(&out.z, &out.z, &z2z2)
	feMul(&out.z, &out.z, &h) // Z3 = ((Z1+Z2)²−Z1Z1−Z2Z2)·H
	*r = out
}

// g1AddMixed sets r = p + (qx, qy) for a non-infinity affine q
// ("madd-2007-bl", 7M + 4S vs the general add's 11M + 5S); r may alias p.
func g1AddMixed(r, p *G1, qx, qy *fe) {
	if p.IsInfinity() {
		*r = g1FromAffine(*qx, *qy)
		return
	}
	var out G1
	g1AddMixedJac(&out, p, qx, qy)
	if out.z.isZero() { // q = ±p
		if q := g1FromAffine(*qx, *qy); p.Equal(q) {
			g1Double(r, p)
			return
		}
		*r = G1{}
		return
	}
	*r = out
}

// g1AddMixedJac sets r = p + (qx, qy) by madd-2007-bl
// (g1AddMixedGeneric) with no branch on the points; Z3 = 0 when p is at
// infinity or q = ±p.
func g1AddMixedJac(r, p *G1, qx, qy *fe) {
	if useADX {
		g1AddMixedADX(r, p, qx, qy)
		return
	}
	g1AddMixedGeneric(r, p, qx, qy)
}

// g1AddMixedGeneric sets r = p + (qx, qy) by "madd-2007-bl"; r may alias
// p. It is g1AddMixedADX's Go body.
func g1AddMixedGeneric(r, p *G1, qx, qy *fe) {
	var z1z1, u2, s2, h, rr fe
	feSquare(&z1z1, &p.z)
	feMul(&u2, qx, &z1z1)
	feMul(&s2, qy, &p.z)
	feMul(&s2, &s2, &z1z1)
	feSub(&h, &u2, &p.x)
	feSub(&rr, &s2, &p.y)
	var hh, i, j, v fe
	feSquare(&hh, &h)
	feDouble(&i, &hh)
	feDouble(&i, &i) // I = 4HH
	feMul(&j, &h, &i)
	feDouble(&rr, &rr) // r = 2(S2 − Y1)
	feMul(&v, &p.x, &i)
	var out G1
	feSquare(&out.x, &rr)
	feSub(&out.x, &out.x, &j)
	feSub(&out.x, &out.x, &v)
	feSub(&out.x, &out.x, &v) // X3 = r² − J − 2V
	feSub(&out.y, &v, &out.x)
	feMul(&out.y, &out.y, &rr)
	var t fe
	feMul(&t, &p.y, &j)
	feDouble(&t, &t)
	feSub(&out.y, &out.y, &t) // Y3 = r(V − X3) − 2Y1·J
	feAdd(&out.z, &p.z, &h)
	feSquare(&out.z, &out.z)
	feSub(&out.z, &out.z, &z1z1)
	feSub(&out.z, &out.z, &hh) // Z3 = (Z1 + H)² − Z1Z1 − HH
	*r = out
}

// InSubgroup reports whether p lies in the order-r subgroup, via the GLV
// endomorphism test [z²]φ(P) = −P (glv.go) — two 64-bit multiplications
// instead of the naive 255-bit r-multiplication (inSubgroupNaive, the
// test oracle).
func (p G1) InSubgroup() bool {
	return p.OnCurve() && p.inSubgroupEndo()
}

// --- G2 arithmetic ---

// IsInfinity reports whether the point is the identity.
func (p G2) IsInfinity() bool { return p.z.isZero() }

func (p G2) affine() (ax, ay fe2, inf bool) {
	if p.IsInfinity() {
		return fe2{}, fe2{}, true
	}
	if p.z.isOne() {
		return p.x, p.y, false
	}
	var zi, zi2, zi3 fe2
	zi.inv(&p.z)
	zi2.square(&zi)
	zi3.mul(&zi2, &zi)
	ax.mul(&p.x, &zi2)
	ay.mul(&p.y, &zi3)
	return ax, ay, false
}

// OnCurve reports whether the point satisfies y² = x³ + 4(u+1), checked
// projectively (Y² = X³ + 4(u+1)Z⁶) — no inversion.
func (p G2) OnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	var lhs, rhs, z2, z6 fe2
	lhs.square(&p.y)
	rhs.square(&p.x)
	rhs.mul(&rhs, &p.x)
	z2.square(&p.z)
	z6.square(&z2)
	z6.mul(&z6, &z2)
	z6.mul(&z6, &fe2B)
	rhs.add(&rhs, &z6)
	return lhs.equal(&rhs)
}

// Equal reports point equality.
func (p G2) Equal(q G2) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() == q.IsInfinity()
	}
	var z1z1, z2z2, a, b fe2
	z1z1.square(&p.z)
	z2z2.square(&q.z)
	a.mul(&p.x, &z2z2)
	b.mul(&q.x, &z1z1)
	if !a.equal(&b) {
		return false
	}
	z2z2.mul(&z2z2, &q.z)
	z1z1.mul(&z1z1, &p.z)
	a.mul(&p.y, &z2z2)
	b.mul(&q.y, &z1z1)
	return a.equal(&b)
}

// Neg returns −p.
func (p G2) Neg() G2 {
	if p.IsInfinity() {
		return p
	}
	out := p
	out.y.neg(&p.y)
	return out
}

func (p G2) double() G2 {
	if p.IsInfinity() || p.y.isZero() {
		return g2Infinity()
	}
	var a, b, c, d, e, f fe2
	a.square(&p.x)
	b.square(&p.y)
	c.square(&b)
	d.add(&p.x, &b)
	d.square(&d)
	d.sub(&d, &a)
	d.sub(&d, &c)
	d.double(&d)
	e.double(&a)
	e.add(&e, &a)
	f.square(&e)
	var out G2
	out.x.sub(&f, &d)
	out.x.sub(&out.x, &d)
	out.y.sub(&d, &out.x)
	out.y.mul(&out.y, &e)
	c.double(&c)
	c.double(&c)
	c.double(&c)
	out.y.sub(&out.y, &c)
	out.z.mul(&p.y, &p.z)
	out.z.double(&out.z)
	return out
}

// Add returns p + q.
func (p G2) Add(q G2) G2 {
	if p.IsInfinity() {
		return q
	}
	if q.IsInfinity() {
		return p
	}
	var z1z1, z2z2, u1, u2, s1, s2 fe2
	z1z1.square(&p.z)
	z2z2.square(&q.z)
	u1.mul(&p.x, &z2z2)
	u2.mul(&q.x, &z1z1)
	s1.mul(&z2z2, &q.z)
	s1.mul(&s1, &p.y)
	s2.mul(&z1z1, &p.z)
	s2.mul(&s2, &q.y)
	if u1.equal(&u2) {
		if s1.equal(&s2) {
			return p.double()
		}
		return g2Infinity()
	}
	var h, i, j, r, v fe2
	h.sub(&u2, &u1)
	i.double(&h)
	i.square(&i)
	j.mul(&h, &i)
	r.sub(&s2, &s1)
	r.double(&r)
	v.mul(&u1, &i)
	var out G2
	out.x.square(&r)
	out.x.sub(&out.x, &j)
	out.x.sub(&out.x, &v)
	out.x.sub(&out.x, &v)
	out.y.sub(&v, &out.x)
	out.y.mul(&out.y, &r)
	s1.mul(&s1, &j)
	s1.double(&s1)
	out.y.sub(&out.y, &s1)
	out.z.add(&p.z, &q.z)
	out.z.square(&out.z)
	out.z.sub(&out.z, &z1z1)
	out.z.sub(&out.z, &z2z2)
	out.z.mul(&out.z, &h)
	return out
}

// addMixed returns p + (qx, qy) where q is a non-infinity affine twist
// point (madd-2007-bl over Fp2).
func (p G2) addMixed(qx, qy *fe2) G2 {
	if p.IsInfinity() {
		return g2FromAffine(*qx, *qy)
	}
	var z1z1, u2, s2, h, r fe2
	z1z1.square(&p.z)
	u2.mul(qx, &z1z1)
	s2.mul(qy, &p.z)
	s2.mul(&s2, &z1z1)
	h.sub(&u2, &p.x)
	r.sub(&s2, &p.y)
	if h.isZero() {
		if r.isZero() {
			return p.double()
		}
		return g2Infinity()
	}
	var hh, i, j, v fe2
	hh.square(&h)
	i.double(&hh)
	i.double(&i)
	j.mul(&h, &i)
	r.double(&r)
	v.mul(&p.x, &i)
	var out G2
	out.x.square(&r)
	out.x.sub(&out.x, &j)
	out.x.sub(&out.x, &v)
	out.x.sub(&out.x, &v)
	out.y.sub(&v, &out.x)
	out.y.mul(&out.y, &r)
	var t fe2
	t.mul(&p.y, &j)
	t.double(&t)
	out.y.sub(&out.y, &t)
	out.z.add(&p.z, &h)
	out.z.square(&out.z)
	out.z.sub(&out.z, &z1z1)
	out.z.sub(&out.z, &hh)
	return out
}

// InSubgroup reports whether p lies in the order-r subgroup of the twist,
// via the ψ endomorphism test ψ(P) = [z]P (endomorphism.go) — one 64-bit
// multiplication instead of the naive 255-bit r-multiplication
// (inSubgroupNaive, the test oracle).
func (p G2) InSubgroup() bool {
	return p.OnCurve() && p.inSubgroupPsi()
}

// --- encodings ---

const fpSize = 48

// G1Size is the encoded size of a G1 point.
const G1Size = 1 + 2*fpSize

// G2Size is the encoded size of a G2 point.
const G2Size = 1 + 4*fpSize

// Bytes encodes the point (0x00 = infinity, 0x04 ‖ x ‖ y otherwise).
func (p G1) Bytes() []byte {
	out := make([]byte, G1Size)
	ax, ay, inf := p.affine()
	if inf {
		return out
	}
	out[0] = 0x04
	feToBytes(out[1:1+fpSize], &ax)
	feToBytes(out[1+fpSize:], &ay)
	return out
}

// G1FromBytes decodes a point, enforcing curve and subgroup membership.
func G1FromBytes(b []byte) (G1, error) {
	p, err := g1DecodeUncompressed(b)
	if err != nil {
		return G1{}, err
	}
	if !p.InSubgroup() {
		return G1{}, errors.New("bls: G1 point not in subgroup")
	}
	return p, nil
}

// g1DecodeUncompressed parses the coordinate encoding, canonical
// coordinates only, without any curve or subgroup validation: G1FromBytes
// adds the membership test, SignatureFromPreimage its cofactor check.
func g1DecodeUncompressed(b []byte) (G1, error) {
	if len(b) != G1Size {
		return G1{}, fmt.Errorf("bls: G1 encoding must be %d bytes, got %d", G1Size, len(b))
	}
	if b[0] == 0 {
		return g1Infinity(), nil
	}
	if b[0] != 0x04 {
		return G1{}, errors.New("bls: bad G1 tag byte")
	}
	if !feValidBytes(b[1:1+fpSize]) || !feValidBytes(b[1+fpSize:]) {
		return G1{}, errors.New("bls: G1 coordinate out of range")
	}
	var x, y fe
	feFromBytes(&x, b[1:1+fpSize])
	feFromBytes(&y, b[1+fpSize:])
	return g1FromAffine(x, y), nil
}

// Bytes encodes the point (0x00 = infinity, 0x04 ‖ x0 ‖ x1 ‖ y0 ‖ y1).
func (p G2) Bytes() []byte {
	out := make([]byte, G2Size)
	ax, ay, inf := p.affine()
	if inf {
		return out
	}
	out[0] = 0x04
	feToBytes(out[1:1+fpSize], &ax.c0)
	feToBytes(out[1+fpSize:1+2*fpSize], &ax.c1)
	feToBytes(out[1+2*fpSize:1+3*fpSize], &ay.c0)
	feToBytes(out[1+3*fpSize:], &ay.c1)
	return out
}

// G2FromBytes decodes a point, enforcing curve and subgroup membership
// (the ψ endomorphism check).
func G2FromBytes(b []byte) (G2, error) {
	p, err := g2DecodeUncompressed(b)
	if err != nil {
		return G2{}, err
	}
	if !p.InSubgroup() {
		return G2{}, errors.New("bls: G2 point not in subgroup")
	}
	return p, nil
}

// g2DecodeUncompressed parses the coordinate encoding without any curve or
// subgroup validation — split out so benchmarks can price the membership
// test separately.
func g2DecodeUncompressed(b []byte) (G2, error) {
	if len(b) != G2Size {
		return G2{}, fmt.Errorf("bls: G2 encoding must be %d bytes, got %d", G2Size, len(b))
	}
	if b[0] == 0 {
		return g2Infinity(), nil
	}
	if b[0] != 0x04 {
		return G2{}, errors.New("bls: bad G2 tag byte")
	}
	var coords [4]fe
	for i := range coords {
		raw := b[1+i*fpSize : 1+(i+1)*fpSize]
		if !feValidBytes(raw) {
			return G2{}, errors.New("bls: G2 coordinate out of range")
		}
		feFromBytes(&coords[i], raw)
	}
	return g2FromAffine(fe2{c0: coords[0], c1: coords[1]}, fe2{c0: coords[2], c1: coords[3]}), nil
}
