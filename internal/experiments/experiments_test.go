package experiments

import (
	"math"
	"strings"
	"testing"

	"safetypin/internal/bfe"
	"safetypin/internal/meter"
	"safetypin/internal/simtime"
)

func TestTablesRender(t *testing.T) {
	if !strings.Contains(Table2(), "SoloKey") {
		t.Fatal("Table2 missing SoloKey row")
	}
	if !strings.Contains(Table7(nil), "ElGamal decrypt") {
		t.Fatal("Table7 missing rows")
	}
	host := &HostRates{ECMulPerSec: 1000}
	if !strings.Contains(Table7(host), "1000") {
		t.Fatal("Table7 missing host rates")
	}
}

func TestPaperRotationMatchesPaper(t *testing.T) {
	// §9.1: key rotation takes roughly 75 hours on a SoloKey.
	got := PaperRotationLoad().Total() / 3600
	if got < 60 || got > 100 {
		t.Fatalf("rotation estimate %f hours, paper says ~75", got)
	}
	if PaperBFEParams.SecretKeyBytes() != 64<<20 {
		t.Fatalf("paper secret key should be 64MB, got %d", PaperBFEParams.SecretKeyBytes())
	}
	if PaperBFEParams.MaxPunctures() != 1<<18 {
		t.Fatalf("paper puncture budget should be 2^18, got %d", PaperBFEParams.MaxPunctures())
	}
}

func TestFig8ShrinksWithFleet(t *testing.T) {
	cfg := Fig8Config{
		BaseLogSize: 4096,
		Inserts:     1024,
		Lambda:      16,
		Sizes:       []int{64, 256, 1024},
	}
	points, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("want 3 points, got %d", len(points))
	}
	// The paper's scalability claim: per-HSM audit time falls as N grows.
	for i := 1; i < len(points); i++ {
		if points[i].AuditSeconds >= points[i-1].AuditSeconds {
			t.Fatalf("audit time did not shrink: %+v", points)
		}
	}
	// Only the audit is priced, and all of it scales with the log depth:
	// a public-key component (the epoch's signature and commit check)
	// would not scale, and would break the ratio.
	scale := float64(log2ceil(100_000_000)) / float64(log2ceil(cfg.BaseLogSize))
	for _, p := range points {
		if math.Abs(p.AuditSecondsAt-p.AuditSeconds*scale) > 1e-9*p.AuditSecondsAt {
			t.Fatalf("N=%d: %.6f s at the paper's depth is not %.3f × %.6f s: a component that does not scale is priced",
				p.DataCenterSize, p.AuditSecondsAt, scale, p.AuditSeconds)
		}
	}
	if !strings.Contains(RenderFig8(points, cfg), "Figure 8") {
		t.Fatal("render broken")
	}
}

func TestFig9GrowsLogarithmically(t *testing.T) {
	points, err := Fig9([]int{16, 256, 4096})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatal("missing points")
	}
	// Cost grows with key size...
	if points[2].Cost.Total() <= points[0].Cost.Total() {
		t.Fatalf("decrypt+puncture cost flat across key sizes: %+v", points)
	}
	// ...but far slower than linearly (log depth): 256× the budget must
	// cost well under 64× as much.
	ratio := points[2].Cost.Total() / points[0].Cost.Total()
	if ratio > 64 {
		t.Fatalf("cost scaling looks linear: ratio %f", ratio)
	}
	// Public-key slice is constant (K decryptions regardless of M).
	if math.Abs(points[2].Cost.PublicKey-points[0].Cost.PublicKey) > 0.05 {
		t.Fatalf("public-key slice should be flat: %+v", points)
	}
	if !strings.Contains(RenderFig9(points), "Figure 9") {
		t.Fatal("render broken")
	}
}

// TestSecureDeletionVsNaive prices one tree-based secure deletion (a
// decrypt-and-puncture at a 1024-puncture key) against re-encrypting the
// whole outsourced array of a paper-size key, both on the SoloKey profile
// from the same op vocabulary — §9.1's "48 minutes per deletion, 4423×
// slower". This model reads ≈ 21,000× (≈ 110 minutes against ≈ 0.31 s);
// the bounds catch a change to either side's pricing.
func TestSecureDeletionVsNaive(t *testing.T) {
	points, err := Fig9([]int{1024})
	if err != nil {
		t.Fatal(err)
	}
	tree := points[0].Cost.Total()
	m := PaperBFEParams.M
	naive := simtime.CostOf(map[meter.Op]int64{
		meter.OpAES32:       int64(4 * m),
		meter.OpIORoundTrip: StoreStreamExchanges(m),
		meter.OpIOByte:      int64(2 * m * 76),
	}, simtime.SoloKey()).Total()
	if ratio := naive / tree; ratio < 15000 || ratio > 30000 {
		t.Fatalf("naive deletion %.0f s / tree deletion %.3f s = %.0f×, want 15,000–30,000×", naive, tree, ratio)
	}
}

func smallMeasureConfig() MeasureConfig {
	return MeasureConfig{NumHSMs: 24, ClusterSize: 8, BFE: bfe.Params{M: 256, K: 4}}
}

func TestFig10Shapes(t *testing.T) {
	rep, err := Fig10(smallMeasureConfig())
	if err != nil {
		t.Fatal(err)
	}
	sp, bl := rep.SafetyPin, rep.Baseline
	// SafetyPin recovery costs more than the baseline (the paper's 1.01s
	// vs 0.17s), and the puncturable-encryption slice dominates.
	if sp.RecoverySeconds() <= bl.RecoverCost.Total() {
		t.Fatalf("SafetyPin (%f) should cost more than baseline (%f)",
			sp.RecoverySeconds(), bl.RecoverCost.Total())
	}
	if sp.Components.Puncturable.Total() <= sp.Components.Log.Total() {
		t.Fatalf("puncturable slice should dominate log slice: %+v", sp.Components)
	}
	if sp.CiphertextBytes < 1000 {
		t.Fatalf("implausible ciphertext size %d", sp.CiphertextBytes)
	}
	if !strings.Contains(rep.Render(), "Figure 10") {
		t.Fatal("render broken")
	}
}

func TestFig11Shapes(t *testing.T) {
	points, err := Fig11(smallMeasureConfig(), []int{8, 16, 24})
	if err != nil {
		t.Fatal(err)
	}
	// Security loss falls with n; recovery time must not fall.
	for i := 1; i < len(points); i++ {
		if points[i].SecurityLossBits >= points[i-1].SecurityLossBits {
			t.Fatal("security loss should fall with n")
		}
		if points[i].RecoverySeconds < points[i-1].RecoverySeconds*0.9 {
			t.Fatalf("recovery time fell sharply with n: %+v", points)
		}
	}
	if !strings.Contains(RenderFig11(points), "Figure 11") {
		t.Fatal("render broken")
	}
}

func TestFig12And13AndTable14(t *testing.T) {
	load := simRecoveryLoad()
	series := Fig12(load, 5e6, 5)
	if len(series) != 3 {
		t.Fatal("Fig12 should have one series per device")
	}
	// More budget → more throughput, and SafeNet (fast) beats SoloKey at
	// equal spend? (paper Figure 12 shows SoloKey winning per dollar; check
	// monotonicity only).
	for _, s := range series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].RecoveriesPerYear < s.Points[i-1].RecoveriesPerYear {
				t.Fatalf("%s: throughput not monotone in budget", s.Device)
			}
		}
	}
	f13 := Fig13(load, 1.5e9, 3)
	if len(f13) != 4 {
		t.Fatal("Fig13 should have 4 constraint series")
	}
	// Tighter constraints need at least as many HSMs.
	for i := range f13[0].Points {
		if !f13[0].Points[i].Infeasible && !f13[3].Points[i].Infeasible {
			if f13[0].Points[i].DataCenterSize < f13[3].Points[i].DataCenterSize {
				t.Fatal("30s constraint sized below the unconstrained bound")
			}
		}
	}
	t14 := Table14(load)
	if !strings.Contains(t14, "SoloKey") || !strings.Contains(t14, "SafeNet") {
		t.Fatal("Table14 missing devices")
	}
	if !strings.Contains(RenderFig12(series), "Figure 12") ||
		!strings.Contains(RenderFig13(f13), "Figure 13") {
		t.Fatal("render broken")
	}
}

// simRecoveryLoad is a fixed plausible load so model tests don't depend on
// measurement.
func simRecoveryLoad() simtime.RecoveryLoad {
	return simtime.RecoveryLoad{
		PerHSMSeconds:   0.6,
		ClusterSize:     40,
		RotationSeconds: PaperRotationLoad().Total(),
		RotationEvery:   PaperBFEParams.MaxPunctures(),
	}
}

func TestBandwidthReportRenders(t *testing.T) {
	s := BandwidthReport(PaperN, PaperClusterSize, PaperBFEParams, PaperBFEParams.MaxPunctures())
	if !strings.Contains(s, "initial download") {
		t.Fatal("bandwidth report broken")
	}
}

func TestSecurityLossSeries(t *testing.T) {
	rows := SecurityLossSeries(PaperN, []int{40, 50, 60})
	if len(rows) != 3 {
		t.Fatal("wrong row count")
	}
	if rows[0].LossBits <= rows[2].LossBits {
		t.Fatal("loss not decreasing")
	}
}
