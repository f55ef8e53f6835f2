package aggsig

import (
	"testing"

	"safetypin/internal/ratioguard"
)

// BenchmarkRatioGuards holds the roster cache to its purpose (package
// ratioguard): a quorum key with 8 of 1024 signers missing costs eight
// subtractions from the cached aggregate, not an MSM over the roster.
func BenchmarkRatioGuards(b *testing.B) {
	ratioguard.Run(b, []ratioguard.Guard{{
		// ≈ 0.022–0.025; ≈ 1 once the quorum key is aggregated from
		// scratch again.
		Name: "QuorumKeyCached1024/QuorumKeyFullMSM1024", Num: BenchmarkQuorumKeyCached1024, Den: BenchmarkQuorumKeyFullMSM1024, Max: 0.2,
	}})
}
