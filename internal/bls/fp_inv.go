package bls

// fp_inv.go inverts in Fp by Bernstein and Yang's safegcd ("Fast
// constant-time gcd computation and modular inversion", TCHES 2019) on
// signed 62-bit limbs, as libsecp256k1's modinv64 does, with no branch,
// loop bound or address that depends on the operand. A divstep maps
// (δ, f, g), f odd, to (1 − δ, g, (g − f)/2) if δ > 0 and g is odd, to
// (1 + δ, f, (g + f)/2) if only g is odd, and else to (1 + δ, f, g/2).
// From (1, p, x), x < p, it reaches g = 0, f = ±1 within ⌊(49·381 +
// 57)/17⌋ = 1,101 steps (their Theorem 11.2, d = 381); feInv runs
// invBatches·60 = 1,140. Each batch's matrix goes exactly to (f, g) and
// modulo p to (d, e), which keep d·x ≡ f and e·x ≡ g (mod p).

import "math/bits"

// s62 is Σ l[i]·2^(62i), limbs 0..5 in [0, 2^62) between steps.
type s62 [7]int64

const (
	m62        = 1<<62 - 1
	invBatches = 19
	pInv62     = (^montInv + 1) & m62 // p⁻¹ mod 2^62, as montInv = −p⁻¹ mod 2^64
)

var pS62 = s62FromFe(&pLimbs) // p in signed-62 limbs

// feInv sets z = x⁻¹; z = 0 for x = 0. x holds a·R, so the safegcd yields
// a⁻¹·R⁻¹, and one product by R³ (feMul divides by R) makes it a⁻¹·R.
func feInv(z, x *fe) {
	d, f, _ := feInvSteps(x)
	s62Reduce(&d, f[6]>>63)
	s62Reduce(&d, 0)
	*z = s62ToFe(&d)
	feMul(z, z, &feR3)
}

// feInvSteps runs every batch on (1, p, x) and returns d with the final
// f and g: g = 0, f = ±1 and d·x ≡ f (mod p) with d in (−2p, p), unless
// x = 0, which leaves d = 0 and f = p.
//
//spin:secret x
func feInvSteps(x *fe) (d, f, g s62) {
	f, g = pS62, s62FromFe(x)
	e := s62{1}
	eta := int64(-1) // η = −δ
	for i := 0; i < invBatches; i++ {
		var u, v, q, r int64
		eta, u, v, q, r = divsteps60(eta, uint64(f[0]), uint64(g[0]))
		update(&d, &e, &f, &g, u, v, q, r)
	}
	return d, f, g
}

// divsteps60 runs 60 divsteps on the low bits of f and g, returning η and
// the matrix that maps (f, g) to (u·f + v·g, q·f + r·g)/2^62: the product
// of two 30-step halves', scaled by 4. The first half's moves f and g on,
// exact in the low 32 bits that the second reads.
//
//spin:secret eta f g
func divsteps60(eta int64, f, g uint64) (int64, int64, int64, int64, int64) {
	eta, uv, qr := divsteps30(eta, f, g)
	u, v := unpack32(uv)
	q, r := unpack32(qr)
	f, g = uint64(u)*f+uint64(v)*g, uint64(q)*f+uint64(r)*g
	eta, uv, qr = divsteps30(eta, f>>30, g>>30)
	u2, v2 := unpack32(uv)
	q2, r2 := unpack32(qr)
	return eta, (u2*u + v2*q) << 2, (u2*v + v2*r) << 2, (q2*u + r2*q) << 2, (q2*v + r2*r) << 2
}

// divsteps30 runs 30 divsteps with η = −δ: c1 = η>>63 is all ones when
// δ > 0, c2 when g is odd. The matrix rows are packed, uv = u + 2^32·v
// and qr = q + 2^32·r (|u|+|v| ≤ 2^30), and the row for f doubles each
// step instead of the row for g halving.
//
//spin:secret eta f g
func divsteps30(eta int64, f, g uint64) (int64, uint64, uint64) {
	uv, qr := uint64(1), uint64(1)<<32
	for i := 0; i < 30; i++ {
		c1 := uint64(eta >> 63)
		c2 := -(g & 1)
		// g, qr += ±(f, uv) when g is odd, minus when δ > 0.
		g += ((f ^ c1) - c1) & c2
		qr += ((uv ^ c1) - c1) & c2
		// Swapping, f and uv take the old g and qr, and η becomes δ − 1.
		c1 &= c2
		eta = (eta ^ int64(c1)) + int64(^c1)
		f += g & c1
		uv += qr & c1
		g >>= 1
		uv <<= 1
	}
	return eta, uv, qr
}

// unpack32 splits w = lo + 2^32·hi, both signed.
func unpack32(w uint64) (lo, hi int64) { return int64(int32(w)), (int64(w) - int64(int32(w))) >> 32 }

// mac returns hi:lo + x·y, signed: the signed product's high word is the
// unsigned one less y when x < 0 and less x when y < 0.
func mac(hi, lo uint64, x, y int64) (uint64, uint64) {
	ph, pl := bits.Mul64(uint64(x), uint64(y))
	lo, c := bits.Add64(lo, pl, 0)
	hi, _ = bits.Add64(hi, ph, c)
	return hi - uint64(x>>63&y+y>>63&x), lo
}

// shr62 shifts the signed hi:lo right by 62 bits.
func shr62(hi, lo uint64) (uint64, uint64) { return uint64(int64(hi) >> 62), hi<<2 | lo>>62 }

// update sets (f, g) to (u·f + v·g, q·f + r·g)/2^62, exact as the
// matrix clears the low 62 bits (limb i of a sum is limb i−1 of its
// quotient), and (d, e) likewise modulo p, keeping them in (−2p, p): it
// adds the md·p and me·p that clear the low 62 bits, md and me offset by
// u, v (q, r) when d (e) is negative.
//
//spin:secret d e f g u v q r
func update(d, e, f, g *s62, u, v, q, r int64) {
	var ah, al, bh, bl uint64
	for i := 0; i < 7; i++ {
		ah, al = mac(ah, al, u, f[i])
		ah, al = mac(ah, al, v, g[i])
		bh, bl = mac(bh, bl, q, f[i])
		bh, bl = mac(bh, bl, r, g[i])
		f[max(i-1, 0)], g[max(i-1, 0)] = int64(al&m62), int64(bl&m62)
		ah, al = shr62(ah, al)
		bh, bl = shr62(bh, bl)
	}
	f[6], g[6] = int64(al), int64(bl)
	sd, se := d[6]>>63, e[6]>>63
	md, me := u&sd+v&se, q&sd+r&se
	md -= int64((pInv62*uint64(u*d[0]+v*e[0]) + uint64(md)) & m62)
	me -= int64((pInv62*uint64(q*d[0]+r*e[0]) + uint64(me)) & m62)
	ah, al, bh, bl = 0, 0, 0, 0
	for i := 0; i < 7; i++ {
		ah, al = mac(ah, al, u, d[i])
		ah, al = mac(ah, al, v, e[i])
		ah, al = mac(ah, al, md, pS62[i])
		bh, bl = mac(bh, bl, q, d[i])
		bh, bl = mac(bh, bl, r, e[i])
		bh, bl = mac(bh, bl, me, pS62[i])
		d[max(i-1, 0)], e[max(i-1, 0)] = int64(al&m62), int64(bl&m62)
		ah, al = shr62(ah, al)
		bh, bl = shr62(bh, bl)
	}
	d[6], e[6] = int64(al), int64(bl)
}

// s62Reduce maps r in (−2p, p) to (−p, p), adding p when r < 0, negates
// it when neg is all ones, and carries limbs 0..5 into [0, 2^62). A
// second call, on (−p, p), lands in [0, p).
//
//spin:secret r neg
func s62Reduce(r *s62, neg int64) {
	add := r[6] >> 63
	for i := 0; i < 7; i++ {
		r[i] = (r[i] + pS62[i]&add ^ neg) - neg
	}
	for i := 0; i < 6; i++ {
		r[i+1] += r[i] >> 62
		r[i] &= m62
	}
}

// s62FromFe splits the 384-bit x into signed-62 limbs: x[i] starts at
// bit 2i of limb i and its top 2i+2 bits open limb i+1.
//
//spin:secret x
func s62FromFe(x *fe) (r s62) {
	for i := 0; i < 6; i++ {
		r[i] |= int64(x[i] << (2 * i) & m62)
		r[i+1] = int64(x[i] >> (62 - 2*i))
	}
	return r
}

// s62ToFe joins r in [0, 2^384), limbs 0..5 in [0, 2^62), into 64-bit
// limbs: x[i] is r[i] from bit 2i on and the low 2i+2 bits of r[i+1].
//
//spin:secret r
func s62ToFe(r *s62) (x fe) {
	for i := 0; i < 6; i++ {
		x[i] = uint64(r[i])>>(2*i) | uint64(r[i+1])<<(62-2*i)
	}
	return x
}
