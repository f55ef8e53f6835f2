package simtime

import (
	"math"
	"strings"
	"testing"

	"safetypin/internal/meter"
)

func TestSoloKeyProfileMatchesTable7(t *testing.T) {
	d := SoloKey()
	if d.PairingPerSec != 0.43 || d.ElGamalDecPerSec != 6.67 || d.GxPerSec != 7.69 {
		t.Fatal("SoloKey public-key rates drifted from Table 7")
	}
	if d.AES32PerSec != 3703.70 || d.HMACPerSec != 2173.91 {
		t.Fatal("SoloKey symmetric rates drifted from Table 7")
	}
	if d.IORoundTripPerSec != 2277.90 || d.FlashRead32PerSec != 166000 {
		t.Fatal("SoloKey I/O rates drifted from Table 7")
	}
	if d.PriceUSD != 20 {
		t.Fatal("SoloKey price drifted from Table 2")
	}
}

func TestScaledProfiles(t *testing.T) {
	y := YubiHSM2()
	s := SoloKey()
	wantRatio := y.GxPerSec / s.GxPerSec
	gotRatio := y.ElGamalDecPerSec / s.ElGamalDecPerSec
	if math.Abs(wantRatio-gotRatio) > 1e-9 {
		t.Fatal("scaled profile rates not proportional to g^x rate")
	}
	if SafeNetA700().GxPerSec != 2000 || SafeNetA700().PriceUSD != 18468 {
		t.Fatal("SafeNet profile drifted from Table 2")
	}
}

func TestCostClassification(t *testing.T) {
	m := meter.New()
	m.Add(meter.OpElGamalDecrypt, 1)
	m.Add(meter.OpAES32, 100)
	m.Add(meter.OpIORoundTrip, 10)
	b := Cost(m, SoloKey())
	if b.PublicKey <= 0 || b.Symmetric <= 0 || b.IO <= 0 {
		t.Fatalf("missing component: %+v", b)
	}
	// One ElGamal decryption at 6.67/s is ~0.15 s.
	if math.Abs(b.PublicKey-1/6.67) > 1e-9 {
		t.Fatalf("ElGamal pricing wrong: %v", b.PublicKey)
	}
	if math.Abs(b.Total()-(b.PublicKey+b.Symmetric+b.IO)) > 1e-12 {
		t.Fatal("Total != sum")
	}
	if !strings.Contains(b.String(), "total") {
		t.Fatal("String() missing total")
	}
}

func TestSecurityLossBits(t *testing.T) {
	// Monotone decreasing in n; ~log2(50/40) bits between adjacent paper
	// points.
	l40 := SecurityLossBits(3100, 40)
	l50 := SecurityLossBits(3100, 50)
	l100 := SecurityLossBits(3100, 100)
	if !(l40 > l50 && l50 > l100) {
		t.Fatal("security loss not decreasing in n")
	}
	if math.Abs((l40-l50)-math.Log2(50.0/40.0)) > 1e-9 {
		t.Fatal("loss delta shape wrong")
	}
	if got := MinClusterSize(3100, l40); got != 40 {
		t.Fatalf("MinClusterSize inverse wrong: %d", got)
	}
}

func testLoad() RecoveryLoad {
	return RecoveryLoad{
		PerHSMSeconds:   0.5,
		ClusterSize:     40,
		RotationSeconds: 75 * 3600,
		RotationEvery:   1 << 18,
	}
}

func TestRotationAmortization(t *testing.T) {
	l := testLoad()
	eff := l.EffectivePerHSMSeconds()
	if eff <= l.PerHSMSeconds {
		t.Fatal("rotation overhead not charged")
	}
	want := l.PerHSMSeconds + 75*3600/float64(1<<18)
	if math.Abs(eff-want) > 1e-9 {
		t.Fatalf("amortization wrong: %v vs %v", eff, want)
	}
	duty := l.RotationDutyFraction()
	if duty <= 0 || duty >= 1 {
		t.Fatalf("duty fraction out of range: %v", duty)
	}
	// With the paper's 75-hour rotations the duty cycle should be a large
	// constant fraction (it reports ~56%).
	if duty < 0.3 || duty > 0.8 {
		t.Fatalf("duty fraction implausible vs paper: %v", duty)
	}
	noRot := RecoveryLoad{PerHSMSeconds: 0.5, ClusterSize: 40}
	if noRot.EffectivePerHSMSeconds() != 0.5 || noRot.RotationDutyFraction() != 0 {
		t.Fatal("zero-rotation load mishandled")
	}
}

func TestFleetSizing(t *testing.T) {
	l := testLoad()
	n := l.FleetSizeFor(1e9)
	if n <= 0 {
		t.Fatal("fleet size not positive")
	}
	// Shape vs the paper: a SoloKey fleet for 1B recoveries/year is a few
	// thousand devices.
	if n < 500 || n > 50000 {
		t.Fatalf("fleet size implausible: %d", n)
	}
	// Feeding the fleet size back should meet the volume.
	if l.FleetRecoveriesPerYear(n) < 1e9 {
		t.Fatalf("sized fleet under-delivers: %v", l.FleetRecoveriesPerYear(n))
	}
}

func TestMM1Model(t *testing.T) {
	l := testLoad()
	relaxed, err := l.DataCenterSizeForLatency(1e9, math.Inf(1))
	if err != nil {
		t.Fatal(err)
	}
	tight, err := l.DataCenterSizeForLatency(1e9, 30)
	if err != nil {
		t.Fatal(err)
	}
	if tight < relaxed {
		t.Fatalf("tighter latency needs fewer HSMs: %d < %d", tight, relaxed)
	}
	// Infeasible constraint: p99 below the bare service time.
	if _, err := l.DataCenterSizeForLatency(1e9, l.EffectivePerHSMSeconds()/100); err == nil {
		t.Fatal("impossible latency target accepted")
	}
	// P99 at the sized fleet respects the constraint.
	p99 := l.P99LatencySeconds(tight, 1e9)
	if p99 > 30+1e-6 {
		t.Fatalf("sized fleet misses p99: %v", p99)
	}
	if !math.IsInf(l.P99LatencySeconds(1, 1e9), 1) {
		t.Fatal("saturated fleet should have infinite latency")
	}
}

func TestMM1Monotonicity(t *testing.T) {
	l := testLoad()
	prev := 0
	for _, rate := range []float64{1e8, 5e8, 1e9, 1.5e9} {
		n, err := l.DataCenterSizeForLatency(rate, 60)
		if err != nil {
			t.Fatal(err)
		}
		if n < prev {
			t.Fatalf("fleet size not monotone in load: %d after %d", n, prev)
		}
		prev = n
	}
}

func TestPlanDeployment(t *testing.T) {
	load := testLoad()
	solo := PlanDeployment(SoloKey(), load, 1e9, 1.0/16, 0)
	yubi := PlanDeployment(YubiHSM2(), load, 1e9, 1.0/16, 0)
	safenet := PlanDeployment(SafeNetA700(), load, 1e9, 1.0/16, 40)
	if solo.Quantity <= yubi.Quantity || yubi.Quantity <= safenet.Quantity {
		t.Fatalf("faster devices should need fewer units: %d, %d, %d",
			solo.Quantity, yubi.Quantity, safenet.Quantity)
	}
	// Table 14 shape: SoloKey fleet is the cheapest option.
	if solo.HardwareCostUSD >= yubi.HardwareCostUSD {
		t.Fatal("SoloKey fleet should cost less than YubiHSM fleet")
	}
	if solo.EvilHSMsTolerated != solo.Quantity/16 {
		t.Fatal("evil-HSM tolerance wrong")
	}
	// minFleet floor respected (SafeNet needs ≥ cluster size).
	if safenet.Quantity < 40 {
		t.Fatal("minimum fleet floor ignored")
	}
}

func TestStorageCost(t *testing.T) {
	// Paper: 4GB × 1B users ≈ $600M/year.
	got := StorageCostPerYearUSD(1e9, 4)
	if got < 5e8 || got > 7e8 {
		t.Fatalf("storage cost off paper scale: %v", got)
	}
}

func TestClientBandwidth(t *testing.T) {
	// Paper scale: 3,100 HSMs, 11.5MB initial download, ~2MB/day, 9.02KB
	// cluster storage. Our pk sizes differ; check shape and arithmetic.
	bw := EstimateClientBandwidth(3100, 40, 3700, 1<<18, 1e9)
	if bw.InitialDownloadBytes != 3100*3700 {
		t.Fatal("initial download arithmetic wrong")
	}
	if bw.ClusterStorageBytes != 40*3700 {
		t.Fatal("cluster storage arithmetic wrong")
	}
	if bw.DailyDownloadBytes <= 0 {
		t.Fatal("daily download should be positive")
	}
}

// MinClusterSize returns the smallest cluster size n for which the
// Theorem 10 analysis keeps the security loss under the given bits, i.e.
// 3N/n ≤ 2^bits.
func MinClusterSize(totalHSMs int, maxLossBits float64) int {
	n := int(math.Ceil(3*float64(totalHSMs)/math.Pow(2, maxLossBits) - 1e-9))
	if n < 1 {
		n = 1
	}
	return n
}

// P99LatencySeconds returns the 99th-percentile recovery sojourn time for a
// fleet of the given size under the given annual load, or +Inf if the fleet
// saturates.
func (l RecoveryLoad) P99LatencySeconds(totalHSMs int, recoveriesPerYear float64) float64 {
	mu := 1 / l.EffectivePerHSMSeconds()
	lambda := recoveriesPerYear / (365.25 * 24 * 3600) * float64(l.ClusterSize) / float64(totalHSMs)
	if lambda >= mu {
		return math.Inf(1)
	}
	return math.Log(100) / (mu - lambda)
}
