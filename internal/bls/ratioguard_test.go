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
	ratioguard.Run(b, []ratioguard.Guard{{
		// The constant-time window walk against GLV: ≈ 2.0–2.1 with one
		// inversion for the window table, ≈ 7–8 with fifteen.
		Name: "G1MulSecret/G1MulGLV", Num: BenchmarkG1MulSecret, Den: BenchmarkG1MulGLV, Max: 3.0,
	}, {
		// A verification against a key whose lines are cached, against a
		// two-pair check that prepares both arguments: ≈ 0.90–1.04 cached,
		// ≈ 1.05–1.1 with the key's lines rebuilt per call, ≈ 1.15 with
		// the generator's too.
		Name: "VerifyPreparedKey/PairingCheck2", Num: BenchmarkVerifyPreparedKey, Den: BenchmarkPairingCheck2, Max: 1.05,
	}, {
		// ≈ 11,300–11,700 with the masked add/sub; 14,000–22,000 with a
		// branch on the borrow of both, which mispredicts on the tower's
		// data (12,500–14,800 with the branch in feAdd alone).
		Name: "FinalExp/FeMul", Num: BenchmarkFinalExp, Den: BenchmarkFeMul, Max: 13500,
	}, {
		// ≈ 3.5–3.8 for the inversion-free map; ≈ 7.3–8.0 with the four
		// Fermat inversions of the affine map, each adding ≈ 1.
		Name: "HashToG1RFC9380/FeInv", Num: BenchmarkHashToG1RFC9380, Den: BenchmarkFeInv, Max: 6.0,
	}, {
		// The masked tail against the branching one, over the same
		// unrolled rounds: ≈ 1.02–1.12; ≈ 1.7 on the looped CIOS body.
		Name: "FeMulCT/FeMul", Num: BenchmarkFeMulCT, Den: BenchmarkFeMul, Max: 1.4,
	}})
}
