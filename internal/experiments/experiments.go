package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"safetypin/internal/bfe"
	"safetypin/internal/meter"
	"safetypin/internal/securestore"
	"safetypin/internal/simtime"
)

// PaperBFEParams reproduces the paper's puncturable-encryption deployment
// numbers: M = 2^21 positions × 32 B = 64 MB secret keys, rotation after
// M/(2K) = 2^18 decryptions, and a key-generation cost of M point
// multiplications ≈ 2^21/7.69 ≈ 75 hours on a SoloKey (§9.1).
var PaperBFEParams = bfe.Params{M: 1 << 21, K: 4}

// PaperN and PaperClusterSize are the deployment constants of §9.2.
const (
	PaperN           = 3100
	PaperClusterSize = 40
	RecoveriesPerYr  = 1e9
)

// StoreStreamExchanges is the number of host↔HSM exchanges it takes to move
// a whole outsourced store of m blocks (2m tree nodes) across the link, in
// securestore's MaxBatch-block batches.
func StoreStreamExchanges(m int) int64 {
	return int64((2*m + securestore.MaxBatch - 1) / securestore.MaxBatch)
}

// PaperRotationLoad prices one paper-scale key rotation in SoloKey time:
// M keypair generations plus re-provisioning the outsourced store.
func PaperRotationLoad() simtime.Breakdown {
	counts := map[meter.Op]int64{
		meter.OpECMul:       int64(PaperBFEParams.M),
		meter.OpAES32:       int64(4 * PaperBFEParams.M), // 2M tree nodes, seal in+out
		meter.OpIORoundTrip: StoreStreamExchanges(PaperBFEParams.M),
		meter.OpIOByte:      int64(2 * PaperBFEParams.M * 76),
	}
	return simtime.CostOf(counts, simtime.SoloKey())
}

// fmtDur renders seconds compactly.
func fmtDur(s float64) string {
	switch {
	case s >= 3600:
		return fmt.Sprintf("%.1fh", s/3600)
	case s >= 60:
		return fmt.Sprintf("%.1fm", s/60)
	case s >= 1:
		return fmt.Sprintf("%.2fs", s)
	default:
		return fmt.Sprintf("%.0fms", s*1000)
	}
}

func fmtBytes(b int) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%.0fMB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.0fKB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%dB", b)
	}
}

// --- Table 2 ---

// Table2 renders the HSM capability table.
func Table2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: hardware security modules (paper-measured rates)\n")
	fmt.Fprintf(&b, "%-22s %10s %10s %10s %6s\n", "Device", "Price", "g^x/sec", "Storage", "FIPS")
	for _, d := range append(simtime.Devices(), simtime.IntelCPU()) {
		storage := "n/a"
		if d.StorageKB > 0 {
			storage = fmt.Sprintf("%d KB", d.StorageKB)
		}
		fips := ""
		if d.FIPS {
			fips = "yes"
		}
		fmt.Fprintf(&b, "%-22s %10s %10.2f %10s %6s\n",
			d.Name, fmt.Sprintf("$%.0f", d.PriceUSD), d.GxPerSec, storage, fips)
	}
	return b.String()
}

// --- Table 7 ---

// HostRates measures this host's throughput for the same primitives, giving
// the "CPU vs HSM" contrast of Tables 2/7.
type HostRates struct {
	ECMulPerSec      float64
	ElGamalDecPerSec float64
	PairingPerSec    float64
	HMACPerSec       float64
	AES32PerSec      float64
	// G1MulPerSec is the rate of the BLS12-381 G1 multiplication an HSM
	// signs with: the constant-time GLV walk on a secret scalar.
	G1MulPerSec float64
	// RosterAggPerSec is per-key throughput of batch-affine G2 roster
	// aggregation (bls.AggregatePublicKeys at n = 256).
	RosterAggPerSec float64
}

// Table7 renders the SoloKey microbenchmark constants, plus host-measured
// rates when measure is non-nil.
func Table7(host *HostRates) string {
	d := simtime.SoloKey()
	var b strings.Builder
	fmt.Fprintf(&b, "Table 7: microbenchmarks (ops/sec)\n")
	row := func(name string, solo float64, host float64) {
		h := ""
		if host > 0 {
			h = fmt.Sprintf("%14.0f", host)
		}
		fmt.Fprintf(&b, "%-22s %12.2f %s\n", name, solo, h)
	}
	fmt.Fprintf(&b, "%-22s %12s %14s\n", "Operation", "SoloKey", "this host")
	var hr HostRates
	if host != nil {
		hr = *host
	}
	row("Pairing", d.PairingPerSec, hr.PairingPerSec)
	row("G1 scalar mul (GLV)", d.G1MulPerSec(), hr.G1MulPerSec)
	row("Roster agg (per key)", d.G2AddPerSec(), hr.RosterAggPerSec)
	row("ECDSA verify", d.ECDSAVerifyPerSec, 0)
	row("ElGamal decrypt", d.ElGamalDecPerSec, hr.ElGamalDecPerSec)
	row("g^x (P-256)", d.GxPerSec, hr.ECMulPerSec)
	row("HMAC-SHA256", d.HMACPerSec, hr.HMACPerSec)
	row("AES-128 (32B)", d.AES32PerSec, hr.AES32PerSec)
	row("RTT, CDC (32B)", d.IORoundTripPerSec, 0)
	row("Flash read (32B)", d.FlashRead32PerSec, 0)
	return b.String()
}

// timeRate runs fn repeatedly for ~50ms and returns ops/sec.
func timeRate(fn func()) float64 {
	// warm up
	fn()
	start := time.Now()
	n := 0
	for time.Since(start) < 50*time.Millisecond {
		fn()
		n++
	}
	return float64(n) / time.Since(start).Seconds()
}

// --- Figure 11 annotation / security model ---

// --- Figure 12 ---

// Fig12Point is one point of the throughput-vs-cost curve.
type Fig12Point struct {
	CostUSD           float64
	RecoveriesPerYear float64
}

// Fig12Series sweeps fleet budgets for one device.
type Fig12Series struct {
	Device string
	Points []Fig12Point
}

// Fig12 computes recoveries/year vs retail cost for each HSM model
// (Figure 12), given the measured per-recovery load in SoloKey seconds.
func Fig12(load simtime.RecoveryLoad, maxBudget float64, steps int) []Fig12Series {
	var out []Fig12Series
	for _, d := range simtime.Devices() {
		scale := simtime.SoloKey().GxPerSec / d.GxPerSec
		scaled := simtime.RecoveryLoad{
			PerHSMSeconds:   load.PerHSMSeconds * scale,
			ClusterSize:     load.ClusterSize,
			RotationSeconds: load.RotationSeconds * scale,
			RotationEvery:   load.RotationEvery,
		}
		s := Fig12Series{Device: d.Name}
		for i := 1; i <= steps; i++ {
			budget := maxBudget * float64(i) / float64(steps)
			n := int(budget / d.PriceUSD)
			if n < load.ClusterSize {
				s.Points = append(s.Points, Fig12Point{budget, 0})
				continue
			}
			s.Points = append(s.Points, Fig12Point{budget, scaled.FleetRecoveriesPerYear(n)})
		}
		out = append(out, s)
	}
	return out
}

// RenderFig12 formats the series.
func RenderFig12(series []Fig12Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 12: recoveries/year vs HSM retail cost\n")
	for _, s := range series {
		fmt.Fprintf(&b, "%s:\n", s.Device)
		for _, p := range s.Points {
			fmt.Fprintf(&b, "  $%-10.0f %8.2f B recoveries/yr\n", p.CostUSD, p.RecoveriesPerYear/1e9)
		}
	}
	return b.String()
}

// --- Figure 13 ---

// Fig13Point is one (request rate → fleet size) point.
type Fig13Point struct {
	RequestsPerYear float64
	DataCenterSize  int
	Infeasible      bool
}

// Fig13Series holds one latency constraint's curve.
type Fig13Series struct {
	ConstraintSeconds float64 // +Inf = throughput-only
	Points            []Fig13Point
}

// Fig13 computes data-center sizes for request rates under p99 constraints
// (Figure 13).
func Fig13(load simtime.RecoveryLoad, maxRate float64, steps int) []Fig13Series {
	constraints := []float64{30, 60, 300, math.Inf(1)}
	var out []Fig13Series
	for _, c := range constraints {
		s := Fig13Series{ConstraintSeconds: c}
		for i := 1; i <= steps; i++ {
			rate := maxRate * float64(i) / float64(steps)
			n, err := load.DataCenterSizeForLatency(rate, c)
			s.Points = append(s.Points, Fig13Point{rate, n, err != nil})
		}
		out = append(out, s)
	}
	return out
}

// RenderFig13 formats the series.
func RenderFig13(series []Fig13Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 13: data-center size vs request rate under p99 latency constraints\n")
	for _, s := range series {
		label := "infinite"
		if !math.IsInf(s.ConstraintSeconds, 1) {
			label = fmtDur(s.ConstraintSeconds)
		}
		fmt.Fprintf(&b, "p99 ≤ %s:\n", label)
		for _, p := range s.Points {
			if p.Infeasible {
				fmt.Fprintf(&b, "  %6.2fB req/yr  infeasible\n", p.RequestsPerYear/1e9)
				continue
			}
			fmt.Fprintf(&b, "  %6.2fB req/yr  N = %d\n", p.RequestsPerYear/1e9, p.DataCenterSize)
		}
	}
	return b.String()
}

// --- Table 14 ---

// Table14 renders the deployment-cost table for 1B recoveries/year.
func Table14(load simtime.RecoveryLoad) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 14: deployment cost for %.0fB recoveries/year\n", RecoveriesPerYr/1e9)
	fmt.Fprintf(&b, "%-22s %8s %9s %7s %12s\n", "HSM", "Qty", "f_secret", "N_evil", "Cost")
	type variant struct {
		device   simtime.DeviceProfile
		fSecret  float64
		minFleet int
	}
	rows := []variant{
		{simtime.SoloKey(), 1.0 / 16, 0},
		{simtime.YubiHSM2(), 1.0 / 16, 0},
		{simtime.SafeNetA700(), 1.0 / 20, PaperClusterSize},
		{simtime.SafeNetA700(), 1.0 / 32, 320}, // “10 evil HSMs” row
		{simtime.SafeNetA700(), 1.0 / 16, 800}, // “50 evil HSMs” row
	}
	for _, v := range rows {
		d := simtime.PlanDeployment(v.device, load, RecoveriesPerYr, v.fSecret, v.minFleet)
		name := v.device.Name
		if v.minFleet > 0 && v.device.Name == "SafeNet A700" && v.minFleet != PaperClusterSize {
			name = fmt.Sprintf("%s (N≥%d)", v.device.Name, v.minFleet)
		}
		fmt.Fprintf(&b, "%-22s %8d %9.4f %7d %12s\n",
			name, d.Quantity, d.FSecret, d.EvilHSMsTolerated,
			fmt.Sprintf("$%.1fK", d.HardwareCostUSD/1000))
	}
	fmt.Fprintf(&b, "Estimated cost of storing 4GB × 10^9 users/year: $%.0fM\n",
		simtime.StorageCostPerYearUSD(1e9, 4)/1e6)
	return b.String()
}

// --- client bandwidth (§9.2 narrative numbers) ---

// BandwidthReport renders the client key-material costs, for both our
// pairing-free BFE public keys (M points each — the variant's documented
// cost, §9: it "increases the size of the HSMs' public keys") and the
// compact pairing-based keys the paper's bandwidth accounting assumes.
func BandwidthReport(totalHSMs, clusterSize int, p bfe.Params, rotationEvery int) string {
	var b strings.Builder
	render := func(label string, pkBytes int64) {
		bw := simtime.EstimateClientBandwidth(totalHSMs, clusterSize, pkBytes, rotationEvery, RecoveriesPerYr)
		fmt.Fprintf(&b, "Client bandwidth (§9.2), N=%d, n=%d, %s pk=%s:\n",
			totalHSMs, clusterSize, label, fmtBytes(int(pkBytes)))
		fmt.Fprintf(&b, "  initial download: %s\n", fmtBytes(int(bw.InitialDownloadBytes)))
		fmt.Fprintf(&b, "  daily download:   %s\n", fmtBytes(int(bw.DailyDownloadBytes)))
		fmt.Fprintf(&b, "  cluster storage:  %s\n", fmtBytes(int(bw.ClusterStorageBytes)))
	}
	render("pairing-free", int64(8+p.M*33))
	// The paper reports 11.5 MB for all N keys → ~3.7 KB per HSM.
	render("pairing-based (paper accounting)", 3700)
	return b.String()
}
