package simtime

import (
	"fmt"
	"sort"

	"safetypin/internal/meter"
)

// Breakdown is simulated device time split the way Figures 9 and 10 report
// it: public-key operations, symmetric-key operations, and I/O.
type Breakdown struct {
	PublicKey float64 // seconds
	Symmetric float64
	IO        float64
}

// Total returns the summed seconds.
func (b Breakdown) Total() float64 { return b.PublicKey + b.Symmetric + b.IO }

// Add returns the component-wise sum.
func (b Breakdown) Add(o Breakdown) Breakdown {
	return Breakdown{
		PublicKey: b.PublicKey + o.PublicKey,
		Symmetric: b.Symmetric + o.Symmetric,
		IO:        b.IO + o.IO,
	}
}

// Scale returns the breakdown multiplied by f.
func (b Breakdown) Scale(f float64) Breakdown {
	return Breakdown{PublicKey: b.PublicKey * f, Symmetric: b.Symmetric * f, IO: b.IO * f}
}

func (b Breakdown) String() string {
	return fmt.Sprintf("total %.3fs (pub %.3fs, sym %.3fs, io %.3fs)",
		b.Total(), b.PublicKey, b.Symmetric, b.IO)
}

// Cost prices a meter snapshot on a device.
func Cost(m *meter.Meter, d DeviceProfile) Breakdown {
	return CostOf(m.Snapshot(), d)
}

// CostOf prices raw operation counts on a device.
func CostOf(counts map[meter.Op]int64, d DeviceProfile) Breakdown {
	var b Breakdown
	for op, n := range counts {
		sec := float64(n) * secondsPerOp(op, d)
		switch opClass(op) {
		case classPublic:
			b.PublicKey += sec
		case classSymmetric:
			b.Symmetric += sec
		case classIO:
			b.IO += sec
		}
	}
	return b
}

type class int

const (
	classPublic class = iota
	classSymmetric
	classIO
)

func opClass(op meter.Op) class {
	switch op {
	case meter.OpECMul, meter.OpElGamalDecrypt, meter.OpPairing,
		meter.OpMillerLoop, meter.OpFinalExp, meter.OpBLSSign,
		meter.OpG2Add, meter.OpSubgroupCheck:
		return classPublic
	case meter.OpAES32, meter.OpHMAC, meter.OpFlashRead32:
		return classSymmetric
	case meter.OpIORoundTrip, meter.OpIOByte:
		return classIO
	default:
		return classSymmetric
	}
}

// secondsPerOp maps one operation to device seconds.
func secondsPerOp(op meter.Op, d DeviceProfile) float64 {
	switch op {
	case meter.OpECMul:
		return 1 / d.GxPerSec
	case meter.OpElGamalDecrypt:
		return 1 / d.ElGamalDecPerSec
	case meter.OpPairing:
		return 1 / d.PairingPerSec
	case meter.OpMillerLoop:
		return 1 / d.MillerLoopPerSec()
	case meter.OpFinalExp:
		return 1 / d.FinalExpPerSec()
	case meter.OpG2Add:
		return 1 / d.G2AddPerSec()
	case meter.OpSubgroupCheck:
		return 1 / d.SubgroupCheckPerSec()
	case meter.OpBLSSign:
		// A G1 hash-and-multiply over the ~2.5× wider BLS12-381 base field;
		// costed as two P-256 point multiplications.
		return 2 / d.GxPerSec
	case meter.OpAES32:
		return 1 / d.AES32PerSec
	case meter.OpHMAC:
		return 1 / d.HMACPerSec
	case meter.OpFlashRead32:
		return 1 / d.FlashRead32PerSec
	case meter.OpIORoundTrip:
		return 1 / d.IORoundTripPerSec
	case meter.OpIOByte:
		return 1 / d.IOBytesPerSec()
	default:
		return 0
	}
}

// Report renders a deterministic per-op cost table for documentation
// output.
func Report(counts map[meter.Op]int64, d DeviceProfile) string {
	ops := make([]string, 0, len(counts))
	for op := range counts {
		ops = append(ops, string(op))
	}
	sort.Strings(ops)
	out := ""
	for _, op := range ops {
		n := counts[meter.Op(op)]
		out += fmt.Sprintf("  %-16s ×%-8d %.4fs\n", op, n,
			float64(n)*secondsPerOp(meter.Op(op), d))
	}
	return out
}
