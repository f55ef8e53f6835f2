package bls

import (
	"testing"

	"safetypin/internal/ratioguard"
)

// BenchmarkRatioGuards holds the field, curve and pairing kernels to what
// they cost relative to one another (package ratioguard). Each comment
// gives the ratio measured on a shared 2-vCPU host and the ratio of the
// regression its bound sits below.
func BenchmarkRatioGuards(b *testing.B) {
	guards := []ratioguard.Guard{{
		// A verification against a key whose lines are cached, against a
		// two-pair check that prepares both arguments: ≈ 0.90–1.04 cached,
		// ≈ 1.05–1.1 with the key's lines rebuilt per call, ≈ 1.15 with
		// the generator's too. With normalised lines and the lazy Fp2
		// kernels the cached reading fell to ≈ 0.82–0.83 (from 0.91–0.93
		// on the same host), since preparing now costs a batched inversion.
		// The safegcd inversion should raise it by ≈ 0.03 (the one-shot
		// side saves four Fermat inversions, the cached side two); it read
		// 0.74–0.96 (7 runs) against 0.75–0.90 (6 runs), inside the host's
		// spread. The lazy Fp6, line and cyclotomic kernels speed both
		// sides, so it held: 0.80–0.83 (4 runs) against 0.66–0.96 (4
		// runs, interleaved).
		Name: "VerifyPreparedKey/PairingCheck2", Num: BenchmarkVerifyPreparedKey, Den: BenchmarkPairingCheck2, Max: 1.05,
	}, {
		// The HSM's commit check with the provider's residue witness
		// against the same check with the final exponentiation: 0.38–0.41
		// (3 runs). With a final exponentiation put back after the
		// witness's Fp6 test, 0.86–1.24 per attempt (3 runs, every one
		// over the bound).
		Name: "VerifyWitness/VerifyPreparedKey", Num: BenchmarkVerifyWitness, Den: BenchmarkVerifyPreparedKey, Max: 0.65,
	}, {
		// On the ADX multiplier with the masked add/sub: 10,900–15,500 per
		// attempt, 10,900–14,300 for the best of three (11 runs). With a
		// branch on the borrow of both, which mispredicts on the tower's
		// data: 14,900–21,700 per attempt, 14,900–16,800 for the best of
		// three (10 runs, every one over the bound). On the Go multiplier
		// this read 11,300–11,700 against 14,000–22,000 (bound 13,500).
		// The lazy Fp2 kernels took the ADX reading to 11,210–11,250 from
		// 12,760–13,860 (two runs each, interleaved). The safegcd inversion
		// in the easy part saves ≈ 550 of them: 9,040–12,250 (7 runs)
		// against 10,650–11,930 (6 runs). The lazy Fp6 and cyclotomic
		// kernels: 8,520–9,340, one 12,160 (4 runs), against 10,360–10,880
		// (4 runs, interleaved).
		Name: "FinalExp/FeMul", Num: BenchmarkFinalExp, Den: BenchmarkFeMul, Max: 14700,
	}, {
		// The safegcd inversion against one field product: 134–141 per
		// attempt (6 runs); the Fermat inversion it replaced read 672–714
		// (3 runs). Off ADX the denominator is the slower Go multiplier
		// and the ratio falls.
		Name: "FeInv/FeMul", Num: BenchmarkFeInv, Den: BenchmarkFeMul, Max: 250,
	}, {
		// The HSM's hash of a header with the provider's hint against the
		// hash that computes its two square roots: 0.42–0.54 per attempt
		// (7 runs). With the hint's roots ignored and both square roots
		// computed again, 0.93–1.16 (3 runs, every attempt over the
		// bound).
		Name: "HashToG1Hinted/HashToG1RFC9380", Num: BenchmarkHashToG1Hinted, Den: BenchmarkHashToG1RFC9380, Max: 0.75,
	}, {
		// The HSM's decode of the aggregate with its cofactor preimage
		// against the decode with the membership test: 0.46–0.57 per
		// attempt (7 runs). With the membership test put back after the
		// cofactor check, 1.48–1.54 (3 runs, every attempt over the
		// bound).
		Name: "G1FromPreimage/G1FromBytes", Num: BenchmarkG1FromPreimage, Den: BenchmarkG1FromBytes, Max: 0.75,
	}}
	if useADX {
		guards = append(guards, ratioguard.Guard{
			// The constant-time GLV walk against one field product, on 64
			// rotating scalars and bases: 2,450–3,132 per attempt (5 runs,
			// one re-measured to 2,902). The 4-bit window walk it replaced
			// (BenchmarkG1MulSecret4Bit, the test oracle) read 3,761–4,514
			// in the same runs. Its denominator used to be the
			// variable-time GLV multiplier, which is gone. Off ADX both
			// walks' ratios fall (1,904–1,924 against 2,862–2,934 under
			// GOARCH=386) and the bound no longer separates them.
			Name: "G1MulSecret/FeMul", Num: BenchmarkG1MulSecret, Den: BenchmarkFeMul, Max: 3400,
		}, ratioguard.Guard{
			// The inversion-free map against one inversion: 15.4–18.4 per
			// attempt, one 20.2 (23 attempts, 17 runs); the affine map's
			// four inversions add exactly 4, 21.6–23.9 (11 runs). With the
			// Fermat inversion this read 3.5–3.8 against 7.3–8.0 (bound
			// 6.0). Off ADX the hash's field products slow and the
			// inversion does not, so the bound holds on ADX only.
			Name: "HashToG1RFC9380/FeInv", Num: BenchmarkHashToG1RFC9380, Den: BenchmarkFeInv, Max: 20,
		}, ratioguard.Guard{
			// The lazily reduced Fp2 kernel against one field product:
			// 2.45–3.21 per attempt, 2.45–2.84 for the best of three (11
			// runs). Its three-multiply Go body read 3.16–3.81 per attempt,
			// 3.16–3.58 for the best of three, over the bound in 10 of 11.
			// Without ADX both sides are the Go kernels.
			Name: "Fp2Mul/FeMul", Num: BenchmarkFp2Mul, Den: BenchmarkFeMul, Max: 3.2,
		}, ratioguard.Guard{
			// The lazily reduced Fp6 kernel against the Go body it replaces
			// on ADX (six Fp2 kernels and the fe2 add/sub calls between
			// them): 0.60–0.76 per attempt, one 0.91 (8 runs); with fe6.mul
			// forced onto its Go body 0.93–1.07 (6 runs, interleaved).
			// Against one Fp2 product the same two paths overlapped,
			// 4.83–6.97 against 5.61–7.32, too close to bound. Without ADX
			// both sides are the Go body.
			Name: "Fp6Mul/Fp6MulGeneric", Num: BenchmarkFp6Mul, Den: BenchmarkFp6MulGeneric, Max: 0.85,
		}, ratioguard.Guard{
			// The G1 membership test (126 doublings, 10 additions) against
			// one field product, on a ring of decoded (Z = 1) points:
			// 1,066–1,255 with the G1 kernels (12 runs); with the group law
			// forced onto its Go bodies 1,051–1,808 per attempt, over the
			// bound on all three attempts in only 4 of 8 runs. On one
			// fixed Jacobian point it read 1,195–1,215 against 1,322–1,329
			// (3 runs each): the decoded points' mixed additions narrow
			// the kernels' lead, and the bound now catches a fall-back
			// only about half the time. Without ADX both sides are Go.
			Name: "G1SubgroupEndo/FeMul", Num: BenchmarkG1SubgroupEndo, Den: BenchmarkFeMul, Max: 1270,
		}, ratioguard.Guard{
			// The dispatching multiplier against the portable Go kernel:
			// ≈ 0.54–0.71 when feMul runs the ADX assembly, ≈ 1 if it
			// ignores useADX. Without ADX there is nothing to compare;
			// TestCPUFeatureDetection checks useADX itself.
			Name: "FeMul/FeMulGeneric", Num: BenchmarkFeMul, Den: BenchmarkFeMulGeneric, Max: 0.85,
		})
	}
	ratioguard.Run(b, guards)
}
