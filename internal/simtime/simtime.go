package simtime

import (
	"fmt"

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
		meter.OpMillerLoop, meter.OpResidueCheck, meter.OpBLSSign,
		meter.OpG2Add, meter.OpCofactorClear:
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
	case meter.OpResidueCheck:
		return 1 / d.ResidueCheckPerSec()
	case meter.OpG2Add:
		return 1 / d.G2AddPerSec()
	case meter.OpCofactorClear:
		return 1 / d.CofactorClearPerSec()
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
