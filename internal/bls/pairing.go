package bls

import (
	"errors"
	"sync"
)

// The pairing is the optimal-ate pairing e: G1 × G2 → GT ⊂ Fp12*. The
// Miller loop runs directly on the twist in homogeneous projective
// coordinates (Costello–Lange–Naehrig, eprint 2010/526): each step emits a
// line as three Fp2 coefficients; dividing it by its v·w coefficient
// leaves two, and one sparse mulByLine (10 Fp2 products) folds it into the
// accumulator. The divisor lies in Fp2*, which the final exponentiation's
// p⁶ − 1 removes, so the pairing is unchanged. The final
// exponentiation does the easy part with a conjugate, one inversion and a
// Frobenius, and the hard part with the Hayashida–Hayasaka–Teruya
// decomposition (eprint 2020/875) over cyclotomic squarings — it computes
// f^{3·(p⁴−p²+1)/r}, a fixed third power of the "textbook" reduced pairing,
// which is an equally valid pairing (gcd(3, r) = 1) and the standard trick
// for a division-free hard part.
//
// millerLoop is shared across pairs: PairingCheck runs one squaring chain
// and one final exponentiation regardless of how many pairs it multiplies,
// so a BLS verification costs 2 Miller loops + 1 final exp. The HSM's
// commit check replaces the final exponentiation by a residue witness
// (witness.go): one Miller loop with the witness folded in, and a test
// for membership in Fp6*.
//
// The loop consumes prepared G2 arguments. The doubling and addition steps
// depend only on the twist point, so prepareG2 runs them once and keeps the
// normalised lines; millerLoop then only evaluates lines at the G1 points.
// One-shot callers (Pair, PairingCheck) prepare on the fly — the steps
// plus one batched inversion — while arguments that outlive a call (the
// generator, a long-lived PublicKey) keep their lines and pay for the
// evaluations alone.

// g2Proj is a twist point in homogeneous projective coordinates (x = X/Z,
// y = Y/Z), the representation the Miller-loop formulas want.
type g2Proj struct{ x, y, z fe2 }

// twoInv is 1/2 in Montgomery form.
var twoInv = func() fe {
	initFieldConstants() // feInv's last product is by feR3
	var two, inv fe
	feFromUint64(&two, 2)
	feInv(&inv, &two)
	return inv
}()

// mulBy3B sets z = 3b'·x = 12(1+u)·x.
func mulBy3B(z, x *fe2) {
	var t fe2
	t.mulByNonResidue(x) // (1+u)x
	t.double(&t)
	t.double(&t) // 4(1+u)x
	z.double(&t)
	z.add(z, &t) // 12(1+u)x
}

// doublingStep sets r = 2r and emits the tangent-line coefficients
// (constant, ·xP, ·yP); see the derivation in the package comment above:
// ℓ = (3b'Z² − Y²) + 3X²·xP·w² − 2YZ·yP·w³ up to an Fp2 scaling the easy
// final exponentiation kills.
func doublingStep(coeff *[3]fe2, r *g2Proj) {
	var t0, t1, t2, t3, t4, t5, t6 fe2
	t0.mul(&r.x, &r.y)
	t0.mulByFe(&t0, &twoInv) // XY/2
	t1.square(&r.y)          // Y²
	t2.square(&r.z)          // Z²
	mulBy3B(&t3, &t2)        // 3b'Z²
	t4.double(&t3)
	t4.add(&t4, &t3) // 9b'Z²
	t5.add(&t1, &t4)
	t5.mulByFe(&t5, &twoInv) // (Y²+9b'Z²)/2
	t6.add(&r.y, &r.z)
	t6.square(&t6)
	t6.sub(&t6, &t1)
	t6.sub(&t6, &t2) // 2YZ

	coeff[0].sub(&t3, &t1) // 3b'Z² − Y²
	coeff[1].square(&r.x)
	var three fe2
	three.double(&coeff[1])
	coeff[1].add(&three, &coeff[1]) // 3X²
	coeff[2].neg(&t6)               // −2YZ

	// X' = XY/2·(Y² − 9b'Z²); Y' = ((Y²+9b'Z²)/2)² − 27b'²Z⁴; Z' = 2Y³Z.
	var x3, y3, z3 fe2
	x3.sub(&t1, &t4)
	x3.mul(&x3, &t0)
	y3.square(&t5)
	t3.square(&t3)
	t4.double(&t3)
	t4.add(&t4, &t3) // 3(3b'Z²)²
	y3.sub(&y3, &t4)
	z3.mul(&t1, &t6)
	r.x, r.y, r.z = x3, y3, z3
}

// additionStep sets r = r + q (q affine) and emits the chord-line
// coefficients: with θ = Y − qy·Z and λ = X − qx·Z,
// ℓ = (θ·qx − λ·qy) − θ·xP·w² + λ·yP·w³ up to scaling.
func additionStep(coeff *[3]fe2, r *g2Proj, qx, qy *fe2) {
	var theta, lambda fe2
	theta.mul(qy, &r.z)
	theta.sub(&r.y, &theta)
	lambda.mul(qx, &r.z)
	lambda.sub(&r.x, &lambda)

	var a, b, c, d, e, g fe2
	a.square(&theta)   // θ²
	b.square(&lambda)  // λ²
	c.mul(&lambda, &b) // λ³
	d.mul(&r.z, &a)    // Zθ²
	e.mul(&r.x, &b)    // Xλ²
	g.add(&c, &d)
	g.sub(&g, &e)
	g.sub(&g, &e) // G = λ³ + Zθ² − 2Xλ²

	var x3, y3, z3 fe2
	x3.mul(&lambda, &g)
	y3.sub(&e, &g)
	y3.mul(&y3, &theta)
	var t fe2
	t.mul(&r.y, &c)
	y3.sub(&y3, &t) // Y' = θ(Xλ² − G) − Yλ³
	z3.mul(&r.z, &c)

	coeff[0].mul(&theta, qx)
	t.mul(&lambda, qy)
	coeff[0].sub(&coeff[0], &t) // θqx − λqy
	coeff[1].neg(&theta)
	coeff[2] = lambda
	r.x, r.y, r.z = x3, y3, z3
}

// millerLines is the number of lines in one Miller loop: a tangent per
// bit of |x| below the leading one (63) and a chord per set bit among them
// (5). TestMillerLinesCount pins it against blsX.
const millerLines = 68

// g2Prepared holds the Miller-loop lines of one twist point, in the order
// the loop consumes them: a line ℓ = c0 + c1·xP·v + c4·yP·v·w is kept as
// (c0/c4, c1/c4), 68 pairs of Fp2, 13,056 bytes.
type g2Prepared struct {
	lines [millerLines][2]fe2
}

// prepareG2 runs the doubling/addition steps of the Miller loop for q,
// records every line, and divides each by its c4 with one batched
// inversion. c4 is −2YZ on a tangent and X − qx·Z on a chord, never zero
// for q of order r: R = [k]q for 1 < k < 2^64 ≪ r is neither 2-torsion
// nor ±q. It returns nil for the point at infinity, whose factor is 1.
func prepareG2(q G2) *g2Prepared {
	qx, qy, inf := q.affine()
	if inf {
		return nil
	}
	var one fe2
	one.setOne()
	r := g2Proj{x: qx, y: qy, z: one}
	var raw [millerLines][3]fe2
	k := 0
	for i := blsXBitLen - 2; i >= 0; i-- {
		doublingStep(&raw[k], &r)
		k++
		if blsX>>uint(i)&1 == 1 {
			additionStep(&raw[k], &r, &qx, &qy)
			k++
		}
	}
	var c4 [millerLines]fe2
	for j := range raw {
		c4[j] = raw[j][2]
	}
	fe2BatchInv(c4[:])
	prep := new(g2Prepared)
	for j := range raw {
		prep.lines[j][0].mul(&raw[j][0], &c4[j])
		prep.lines[j][1].mul(&raw[j][1], &c4[j])
	}
	return prep
}

// g2GeneratorPrepared returns the lines of the G2 generator — the fixed
// second argument of every BLS verification — prepared once per process.
var g2GeneratorPrepared = sync.OnceValue(func() *g2Prepared { return prepareG2(G2Generator()) })

// millerLoop computes Π_i f_{x,Q_i}(P_i), up to a factor in Fp2, over the
// shared |x| squaring chain: a normalised line at P is
// c0/(c4·yP) + (c1/c4)·(xP/yP)·v + v·w, so the loop takes 1/yP and xP/yP
// per G1 point (yInvs[j], xOverYs[j]). Callers must pre-filter infinity.
// A non-nil fold starts the accumulator at fold and multiplies it in at
// every set bit of |x|, so the result carries an extra factor
// conj(fold)^{|x|}: the residue-witness check (witness.go) gets u^{|x|}
// from the squarings the loop does anyway.
func millerLoop(yInvs, xOverYs []fe, qs []*g2Prepared, fold *fe12) fe12 {
	var f fe12
	if fold != nil {
		f = *fold
	} else {
		f.setOne()
	}
	k := 0
	for i := blsXBitLen - 2; i >= 0; i-- {
		f.square(&f)
		// A tangent line, and a chord line where bit i of |x| is set.
		bit := blsX >> uint(i) & 1
		for n := 1 + int(bit); n > 0; n-- {
			for j, q := range qs {
				var c0, c1 fe2
				c0.mulByFe(&q.lines[k][0], &yInvs[j])
				c1.mulByFe(&q.lines[k][1], &xOverYs[j])
				f.mulByLine(&c0, &c1)
			}
			k++
		}
		if bit == 1 && fold != nil {
			f.mul(&f, fold)
		}
	}
	// x is negative: conjugate (valid up to final exponentiation).
	f.conj(&f)
	return f
}

// pairingProduct returns Π e(p_i, Q_i) for prepared Q_i, dropping any pair
// with a point at infinity (a nil Q_i; its factor is 1).
func pairingProduct(ps []G1, qs []*g2Prepared) fe12 {
	return finalExp(millerProduct(ps, qs, nil))
}

// millerProduct runs millerLoop over the pairs without a point at
// infinity. For a Jacobian P = (X, Y, Z) the loop's 1/yP and xP/yP are
// Z³/Y and XZ/Y, from one batched inversion of the Ys.
func millerProduct(ps []G1, qs []*g2Prepared, fold *fe12) fe12 {
	pts, live, yInvs := make([]G1, 0, len(ps)), make([]*g2Prepared, 0, len(ps)), make([]fe, 0, len(ps))
	for i, q := range qs {
		if !ps[i].IsInfinity() && q != nil {
			pts, live, yInvs = append(pts, ps[i]), append(live, q), append(yInvs, ps[i].y)
		}
	}
	if len(live) == 0 && fold == nil {
		var one fe12
		one.setOne()
		return one
	}
	feBatchInv(yInvs)
	xOverYs := make([]fe, len(pts))
	for j := range pts {
		p := &pts[j]
		var z3 fe
		feMul(&xOverYs[j], &p.x, &p.z)
		feMul(&xOverYs[j], &xOverYs[j], &yInvs[j])
		feSquare(&z3, &p.z)
		feMul(&z3, &z3, &p.z)
		feMul(&yInvs[j], &yInvs[j], &z3)
	}
	return millerLoop(yInvs, xOverYs, live, fold)
}

// prepareAll prepares each twist point of a one-shot pairing.
func prepareAll(qs []G2) []*g2Prepared {
	prep := make([]*g2Prepared, len(qs))
	for i := range qs {
		prep[i] = prepareG2(qs[i])
	}
	return prep
}

// finalExp maps a Miller-loop output into the order-r subgroup GT:
// easy part f^{(p⁶−1)(p²+1)}, then the hard part f^{3(p⁴−p²+1)/r} via the
// Hayashida–Hayasaka–Teruya chain (x−1)²(x+p)(x²+p²−1) + 3 with
// cyclotomic squarings inside each x-exponentiation.
func finalExp(f fe12) fe12 {
	// easy part
	var t0, t1, m fe12
	t0.conj(&f) // f^{p⁶}
	t1.inv(&f)
	m.mul(&t0, &t1) // f^{p⁶−1}
	t0.frobeniusSquare(&m)
	m.mul(&m, &t0) // f^{(p⁶−1)(p²+1)} — now in the cyclotomic subgroup

	// hard part
	var a, b, c fe12
	a.cyclotomicSquare(&m) // m²
	b.expByX(&m)           // m^x
	c.conj(&m)             // m^{−1}
	b.mul(&b, &c)          // m^{x−1}
	c.expByX(&b)           // m^{x(x−1)}
	b.conj(&b)             // m^{−(x−1)}
	b.mul(&b, &c)          // m^{(x−1)²}
	c.expByX(&b)           // m^{x(x−1)²}
	b.frobenius(&b)        // m^{p(x−1)²}
	b.mul(&b, &c)          // m^{(x−1)²(x+p)}
	m.mul(&m, &a)          // m³
	a.expByX(&b)           // m^{(x−1)²(x+p)x}
	c.expByX(&a)           // m^{(x−1)²(x+p)x²}
	a.frobeniusSquare(&b)  // m^{(x−1)²(x+p)p²}
	b.conj(&b)             // m^{−(x−1)²(x+p)}
	b.mul(&b, &c)          // m^{(x−1)²(x+p)(x²−1)}
	b.mul(&b, &a)          // m^{(x−1)²(x+p)(x²+p²−1)}
	m.mul(&m, &b)          // m^{3 + (x−1)²(x+p)(x²+p²−1)} = f^{3·(p⁴−p²+1)/r}
	return m
}

// Pair computes the pairing e(p, q). Inputs must be in the order-r
// subgroups, as G1FromBytes and G2FromBytes ensure (prepareG2 relies on
// it); infinity maps to the identity of GT.
func Pair(p G1, q G2) (fe12, error) {
	return pairingProduct([]G1{p}, []*g2Prepared{prepareG2(q)}), nil
}

// GT is an element of the pairing target group.
type GT struct{ v fe12 }

// PairGT is Pair returning an exported handle.
func PairGT(p G1, q G2) (GT, error) {
	v, err := Pair(p, q)
	return GT{v}, err
}

// PairingCheck reports whether Π e(p_i, q_i) = 1. All Miller loops share
// one squaring chain and exactly one final exponentiation runs regardless
// of len(ps) — BLS verification calls it with ((−σ, G2), (H(m), pk)).
// Inputs must be order-r subgroup points, as for Pair.
func PairingCheck(ps []G1, qs []G2) (bool, error) {
	if len(ps) != len(qs) {
		return false, errors.New("bls: mismatched pairing vector lengths")
	}
	out := pairingProduct(ps, prepareAll(qs))
	return out.isOne(), nil
}
