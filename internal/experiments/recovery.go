package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"safetypin"
	"safetypin/internal/bfe"
	"safetypin/internal/client"
	"safetypin/internal/lhe"
	"safetypin/internal/meter"
	"safetypin/internal/simtime"
)

// RecoveryComponents attributes one recovery's per-HSM cost to the paper's
// Figure 10 slices.
type RecoveryComponents struct {
	Log            simtime.Breakdown // log-inclusion verification
	LocationHiding simtime.Breakdown // share handling + reply sealing
	Puncturable    simtime.Breakdown // BFE decrypt + secure deletion
}

// Total sums the slices.
func (c RecoveryComponents) Total() float64 {
	return c.Log.Total() + c.LocationHiding.Total() + c.Puncturable.Total()
}

// splitComponents attributes a meter snapshot to components.
func splitComponents(counts map[meter.Op]int64) RecoveryComponents {
	pick := func(ops ...meter.Op) map[meter.Op]int64 {
		out := make(map[meter.Op]int64)
		for _, op := range ops {
			if v, ok := counts[op]; ok {
				out[op] = v
			}
		}
		return out
	}
	d := simtime.SoloKey()
	return RecoveryComponents{
		Log: simtime.CostOf(pick(meter.OpHMAC), d),
		LocationHiding: simtime.CostOf(pick(meter.OpECMul, meter.OpPairing,
			meter.OpMillerLoop, meter.OpFinalExp, meter.OpBLSSign), d),
		Puncturable: simtime.CostOf(pick(meter.OpElGamalDecrypt, meter.OpAES32,
			meter.OpFlashRead32, meter.OpIORoundTrip, meter.OpIOByte), d),
	}
}

// RecoveryMeasurement is one full save+recover execution, metered and
// priced in SoloKey time.
type RecoveryMeasurement struct {
	NumHSMs         int
	ClusterSize     int
	SaveWall        time.Duration // client-side backup wall time (host)
	CiphertextBytes int
	// PerHSMMax is the busiest cluster member's cost (HSMs work in
	// parallel, so this bounds the compute critical path).
	PerHSMMax simtime.Breakdown
	// Components attributes the busiest member's cost.
	Components RecoveryComponents
	// ClusterIOSeconds is the summed I/O of all cluster members: on the
	// paper's testbed every HSM shares one USB fabric, so I/O serializes
	// across the cluster while computation parallelizes.
	ClusterIOSeconds float64
	// SecurityLossBits annotates the Theorem 10 bound at (N, n).
	SecurityLossBits float64
}

// PerShareOverheadSeconds is the client-side cost of handling one HSM's
// share: opening the sealed reply, plus transport scheduling. The value is
// calibrated to the paper's testbed (Figure 11's slope of ~4 ms per extra
// cluster member); our host does this work in microseconds, so the constant
// stands in for the Pixel 4 + USB-fabric costs we cannot measure here. See
// EXPERIMENTS.md.
const PerShareOverheadSeconds = 0.004

// RecoverySeconds is the modeled end-to-end recovery time: the cluster HSMs
// compute and transfer in parallel (each SoloKey hangs off its own USB
// port), so the critical path is the busiest HSM plus the client's serial
// per-share handling.
func (r *RecoveryMeasurement) RecoverySeconds() float64 {
	return r.PerHSMMax.Total() + float64(r.ClusterSize)*PerShareOverheadSeconds
}

// Load converts the measurement into the fleet-planning RecoveryLoad, using
// the paper-scale rotation schedule.
func (r *RecoveryMeasurement) Load() simtime.RecoveryLoad {
	return simtime.RecoveryLoad{
		PerHSMSeconds:   r.PerHSMMax.Total(),
		ClusterSize:     r.ClusterSize,
		RotationSeconds: PaperRotationLoad().Total(),
		RotationEvery:   PaperBFEParams.MaxPunctures(),
	}
}

// MeasureConfig sizes a recovery measurement.
type MeasureConfig struct {
	NumHSMs     int
	ClusterSize int
	BFE         bfe.Params
}

// DefaultMeasureConfig mirrors the paper's 100-HSM testbed with n = 40.
func DefaultMeasureConfig() MeasureConfig {
	return MeasureConfig{NumHSMs: 100, ClusterSize: 40, BFE: bfe.Params{M: 1024, K: 4}}
}

// measureDeployment builds a metered deployment for recovery measurements.
func measureDeployment(cfg MeasureConfig) (*safetypin.Deployment, error) {
	return safetypin.NewDeployment(safetypin.Params{
		NumHSMs:       cfg.NumHSMs,
		ClusterSize:   cfg.ClusterSize,
		Threshold:     cfg.ClusterSize / 2,
		BFE:           cfg.BFE,
		MinSignerFrac: 0.01, // measurement isolates recovery, not quorum policy
		GuessLimit:    16,
		Metered:       true,
	})
}

// MeasureRecovery runs one backup + recovery on a metered deployment and
// prices the HSM-side work.
func MeasureRecovery(cfg MeasureConfig) (*RecoveryMeasurement, error) {
	d, err := measureDeployment(cfg)
	if err != nil {
		return nil, err
	}
	return measureOn(d, cfg.ClusterSize, "alice")
}

// measureOn runs one measurement against an existing deployment, with a
// cluster size that may differ from the deployment default (Figure 11's
// sweep reuses one fleet).
func measureOn(d *safetypin.Deployment, clusterSize int, user string) (*RecoveryMeasurement, error) {
	params := d.LHEParams()
	if clusterSize != params.ClusterSize() {
		var err error
		params, err = lheParamsFor(d, clusterSize)
		if err != nil {
			return nil, err
		}
	}
	c, err := client.New(user, "123456", params, d.Fleet(), d.Provider)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := c.Backup(context.Background(), []byte("0123456789abcdef")); err != nil {
		return nil, err
	}
	saveWall := time.Since(start)
	blob, err := d.Provider.FetchCiphertext(context.Background(), user)
	if err != nil {
		return nil, err
	}
	s, err := c.Begin(context.Background(), "")
	if err != nil {
		return nil, err
	}
	d.ResetMeters() // exclude provisioning and the log epoch build
	for j := range s.Cluster() {
		if err := s.RequestShare(context.Background(), j); err != nil {
			return nil, err
		}
	}
	if _, err := s.Finish(context.Background()); err != nil {
		return nil, err
	}
	m := &RecoveryMeasurement{
		NumHSMs:          d.Params().NumHSMs,
		ClusterSize:      clusterSize,
		SaveWall:         saveWall,
		CiphertextBytes:  len(blob),
		SecurityLossBits: simtime.SecurityLossBits(d.Params().NumHSMs, clusterSize),
	}
	for _, idx := range s.Cluster() {
		mm := d.Meter(idx)
		if mm == nil {
			continue
		}
		cost := simtime.Cost(mm, simtime.SoloKey())
		m.ClusterIOSeconds += cost.IO
		if cost.Total() > m.PerHSMMax.Total() {
			m.PerHSMMax = cost
			m.Components = splitComponents(mm.Snapshot())
		}
	}
	return m, nil
}

// lheParamsFor builds cluster-size-override parameters on a deployment.
func lheParamsFor(d *safetypin.Deployment, n int) (lhe.Params, error) {
	t := n / 2
	if t < 1 {
		t = 1
	}
	return lhe.NewParams(d.Params().NumHSMs, n, t)
}

// Fig11Point is one cluster-size sweep entry.
type Fig11Point struct {
	ClusterSize      int
	RecoverySeconds  float64
	Components       RecoveryComponents
	SecurityLossBits float64
}

// Fig11 sweeps the cluster size over one fleet (Figure 11): recovery time
// grows slowly (serialized I/O), while the Theorem 10 security-loss bound
// falls.
func Fig11(cfg MeasureConfig, sizes []int) ([]Fig11Point, error) {
	d, err := measureDeployment(cfg)
	if err != nil {
		return nil, err
	}
	var out []Fig11Point
	for i, n := range sizes {
		d.ResetMeters()
		m, err := measureOn(d, n, fmt.Sprintf("user-%d", i))
		if err != nil {
			return nil, err
		}
		out = append(out, Fig11Point{
			ClusterSize:      n,
			RecoverySeconds:  m.RecoverySeconds(),
			Components:       m.Components,
			SecurityLossBits: m.SecurityLossBits,
		})
	}
	return out, nil
}

// RenderFig11 formats the sweep.
func RenderFig11(points []Fig11Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 11: recovery time and security-loss bound vs cluster size\n")
	fmt.Fprintf(&b, "%-10s %12s %12s\n", "n", "recovery", "loss (bits)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10d %12s %12.2f\n", p.ClusterSize, fmtDur(p.RecoverySeconds), p.SecurityLossBits)
	}
	return b.String()
}

// Fig10Report is the save/recover breakdown table.
type Fig10Report struct {
	SafetyPin *RecoveryMeasurement
	Baseline  *BaselineCosts
}

// Fig10 measures SafetyPin and the baseline side by side.
func Fig10(cfg MeasureConfig) (*Fig10Report, error) {
	sp, err := MeasureRecovery(cfg)
	if err != nil {
		return nil, err
	}
	bl, err := MeasureBaseline()
	if err != nil {
		return nil, err
	}
	return &Fig10Report{SafetyPin: sp, Baseline: bl}, nil
}

// Render formats the report.
func (r *Fig10Report) Render() string {
	var b strings.Builder
	sp := r.SafetyPin
	fmt.Fprintf(&b, "Figure 10: save and recovery cost breakdown (N=%d, n=%d)\n",
		sp.NumHSMs, sp.ClusterSize)
	fmt.Fprintf(&b, "save (client wall time):       SafetyPin %v, baseline %v\n",
		sp.SaveWall.Round(time.Millisecond), r.Baseline.SaveWall.Round(time.Millisecond))
	fmt.Fprintf(&b, "recovery ciphertext size:      %s (baseline ~130B)\n", fmtBytes(sp.CiphertextBytes))
	fmt.Fprintf(&b, "recovery, SafetyPin (SoloKey): %s total\n", fmtDur(sp.RecoverySeconds()))
	fmt.Fprintf(&b, "  log check:                   %s\n", fmtDur(sp.Components.Log.Total()))
	fmt.Fprintf(&b, "  location-hiding encryption:  %s\n", fmtDur(sp.Components.LocationHiding.Total()))
	fmt.Fprintf(&b, "  puncturable encryption:      %s\n", fmtDur(sp.Components.Puncturable.Total()))
	fmt.Fprintf(&b, "recovery, baseline (SoloKey):  %s\n", fmtDur(r.Baseline.RecoverCost.Total()))
	return b.String()
}
