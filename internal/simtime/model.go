package simtime

import (
	"errors"
	"math"
)

// This file holds the evaluation's analytic models. The paper computes
// Figures 12 and 13 and Table 14 from microbenchmarks rather than running a
// billion-user deployment; we do the same, parameterized by the measured
// per-recovery Breakdown of our own implementation.

// SecurityLossBits returns the Theorem 10 bound on the attacker's advantage
// over PIN guessing, in bits: log2 of the ratio between the dominant
// 3N/(n·|P|) term and the baseline 1/|P|. Figure 11 annotates cluster sizes
// with this value. (The paper's printed values appear to use a slightly
// smaller constant; the shape — decreasing in n, ~0.3 bits per 25% increase
// in n — is identical. See EXPERIMENTS.md.)
func SecurityLossBits(totalHSMs, clusterSize int) float64 {
	return math.Log2(3 * float64(totalHSMs) / float64(clusterSize))
}

// RecoveryLoad describes what one recovery costs the fleet.
type RecoveryLoad struct {
	// PerHSMSeconds is the busy time each of the n cluster HSMs spends on
	// one recovery (share decrypt + puncture + log work).
	PerHSMSeconds float64
	// ClusterSize is n, the number of HSMs touched per recovery.
	ClusterSize int
	// RotationSeconds is the cost of one full key rotation.
	RotationSeconds float64
	// RotationEvery is the number of decrypt+punctures a key survives
	// before rotation.
	RotationEvery int
}

// EffectivePerHSMSeconds is the per-recovery HSM time including the
// amortized key-rotation overhead (§9.1's 56%-of-cycles effect).
func (l RecoveryLoad) EffectivePerHSMSeconds() float64 {
	if l.RotationEvery <= 0 {
		return l.PerHSMSeconds
	}
	return l.PerHSMSeconds + l.RotationSeconds/float64(l.RotationEvery)
}

// RotationDutyFraction is the fraction of HSM cycles spent rotating keys.
func (l RecoveryLoad) RotationDutyFraction() float64 {
	eff := l.EffectivePerHSMSeconds()
	if eff == 0 {
		return 0
	}
	return (eff - l.PerHSMSeconds) / eff
}

// RecoveriesPerHSMHour is the steady-state rate at which one HSM can serve
// recovery shares, rotation included (the paper reports 1503.9 for the
// SoloKey).
func (l RecoveryLoad) RecoveriesPerHSMHour() float64 {
	return 3600 / l.EffectivePerHSMSeconds()
}

// FleetRecoveriesPerYear is the total recovery throughput of an N-HSM fleet:
// each recovery occupies ClusterSize HSMs.
func (l RecoveryLoad) FleetRecoveriesPerYear(totalHSMs int) float64 {
	perHSMPerYear := 365.25 * 24 * 3600 / l.EffectivePerHSMSeconds()
	return perHSMPerYear * float64(totalHSMs) / float64(l.ClusterSize)
}

// FleetSizeFor returns the number of HSMs needed to serve the given annual
// recovery volume at full utilization (no latency headroom).
func (l RecoveryLoad) FleetSizeFor(recoveriesPerYear float64) int {
	perHSMPerYear := 365.25 * 24 * 3600 / l.EffectivePerHSMSeconds()
	n := math.Ceil(recoveriesPerYear * float64(l.ClusterSize) / perHSMPerYear)
	return int(n)
}

// ErrInfeasible indicates no fleet size satisfies the constraint.
var ErrInfeasible = errors.New("simtime: constraint infeasible")

// DataCenterSizeForLatency returns the minimum fleet size N such that, with
// Poisson arrivals at the given annual rate and per-HSM M/M/1 service, the
// 99th-percentile sojourn time stays below p99Seconds (Figure 13).
// p99Seconds = +Inf gives the pure-throughput bound (utilization < 1).
func (l RecoveryLoad) DataCenterSizeForLatency(recoveriesPerYear, p99Seconds float64) (int, error) {
	mu := 1 / l.EffectivePerHSMSeconds() // per-HSM service rate (recoveries/s)
	lambdaTotal := recoveriesPerYear / (365.25 * 24 * 3600)
	// Each recovery generates ClusterSize jobs spread over N HSMs:
	// per-HSM arrival rate λ(N) = lambdaTotal·n/N. For M/M/1, the sojourn
	// time is Exp(μ−λ), so P99 = ln(100)/(μ−λ) ≤ T ⇔ λ ≤ μ − ln(100)/T.
	slack := 0.0
	if !math.IsInf(p99Seconds, 1) {
		slack = math.Log(100) / p99Seconds
	}
	maxLambda := mu - slack
	if maxLambda <= 0 {
		return 0, ErrInfeasible
	}
	n := math.Ceil(lambdaTotal * float64(l.ClusterSize) / maxLambda)
	if n < float64(l.ClusterSize) {
		n = float64(l.ClusterSize)
	}
	return int(n), nil
}

// Deployment is one Table 14 row: a fleet of a given device sized for a
// workload.
type Deployment struct {
	Device            DeviceProfile
	Quantity          int
	FSecret           float64 // fraction of compromised HSMs tolerated
	EvilHSMsTolerated int
	HardwareCostUSD   float64
}

// PlanDeployment sizes a fleet of the device for the workload and reports
// its cost and compromise tolerance (Table 14). load must be expressed in
// SoloKey seconds; it is rescaled by the device's relative speed.
func PlanDeployment(d DeviceProfile, loadOnSoloKey RecoveryLoad, recoveriesPerYear, fSecret float64, minFleet int) Deployment {
	scale := SoloKey().GxPerSec / d.GxPerSec // device seconds per SoloKey second
	load := RecoveryLoad{
		PerHSMSeconds:   loadOnSoloKey.PerHSMSeconds * scale,
		ClusterSize:     loadOnSoloKey.ClusterSize,
		RotationSeconds: loadOnSoloKey.RotationSeconds * scale,
		RotationEvery:   loadOnSoloKey.RotationEvery,
	}
	qty := load.FleetSizeFor(recoveriesPerYear)
	if qty < minFleet {
		qty = minFleet
	}
	return Deployment{
		Device:            d,
		Quantity:          qty,
		FSecret:           fSecret,
		EvilHSMsTolerated: int(fSecret * float64(qty)),
		HardwareCostUSD:   float64(qty) * d.PriceUSD,
	}
}

// StorageCostPerYearUSD estimates the provider's disk-image storage bill:
// the paper's $600M/year figure for 4 GB × 10⁹ users on S3 infrequent
// access at $0.0125/GB/month.
func StorageCostPerYearUSD(users float64, gbPerUser float64) float64 {
	return users * gbPerUser * 0.0125 * 12
}

// ClientBandwidth models §9.2's client key-download costs.
type ClientBandwidth struct {
	InitialDownloadBytes int64 // all HSMs' public keys on first join
	DailyDownloadBytes   int64 // rotated keys per day
	ClusterStorageBytes  int64 // what the client must persist (its n keys)
}

// EstimateClientBandwidth computes the key-material traffic for a fleet of
// totalHSMs whose per-HSM public key occupies pkBytes and rotates every
// rotationEvery recoveries, under the given annual recovery volume.
func EstimateClientBandwidth(totalHSMs, clusterSize int, pkBytes int64, rotationEvery int, recoveriesPerYear float64) ClientBandwidth {
	rotationsPerDay := recoveriesPerYear / 365.25 / float64(rotationEvery) * float64(clusterSize)
	return ClientBandwidth{
		InitialDownloadBytes: int64(totalHSMs) * pkBytes,
		DailyDownloadBytes:   int64(rotationsPerDay * float64(pkBytes)),
		ClusterStorageBytes:  int64(clusterSize) * pkBytes,
	}
}
