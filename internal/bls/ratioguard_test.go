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
		// The constant-time window walk against GLV: 1.57–1.94 with one
		// safegcd inversion for the window table (7 runs), 1.92–2.06 with
		// one Fermat inversion (6 runs), ≈ 7–8 with fifteen.
		Name: "G1MulSecret/G1MulGLV", Num: BenchmarkG1MulSecret, Den: BenchmarkG1MulGLV, Max: 3.0,
	}, {
		// A verification against a key whose lines are cached, against a
		// two-pair check that prepares both arguments: ≈ 0.90–1.04 cached,
		// ≈ 1.05–1.1 with the key's lines rebuilt per call, ≈ 1.15 with
		// the generator's too. With normalised lines and the lazy Fp2
		// kernels the cached reading fell to ≈ 0.82–0.83 (from 0.91–0.93
		// on the same host), since preparing now costs a batched inversion.
		// The safegcd inversion should raise it by ≈ 0.03 (the one-shot
		// side saves four Fermat inversions, the cached side two); it read
		// 0.74–0.96 (7 runs) against 0.75–0.90 (6 runs), inside the host's
		// spread.
		Name: "VerifyPreparedKey/PairingCheck2", Num: BenchmarkVerifyPreparedKey, Den: BenchmarkPairingCheck2, Max: 1.05,
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
		// against 10,650–11,930 (6 runs).
		Name: "FinalExp/FeMul", Num: BenchmarkFinalExp, Den: BenchmarkFeMul, Max: 14700,
	}, {
		// The safegcd inversion against one field product: 134–141 per
		// attempt (6 runs); the Fermat inversion it replaced read 672–714
		// (3 runs). Off ADX the denominator is the slower Go multiplier
		// and the ratio falls.
		Name: "FeInv/FeMul", Num: BenchmarkFeInv, Den: BenchmarkFeMul, Max: 250,
	}}
	if useADX {
		guards = append(guards, ratioguard.Guard{
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
			// The dispatching multiplier against the portable Go kernel:
			// ≈ 0.54–0.71 when feMul runs the ADX assembly, ≈ 1 if it
			// ignores useADX. Without ADX there is nothing to compare;
			// TestCPUFeatureDetection checks useADX itself.
			Name: "FeMul/FeMulGeneric", Num: BenchmarkFeMul, Den: BenchmarkFeMulGeneric, Max: 0.85,
		})
	}
	ratioguard.Run(b, guards)
}
