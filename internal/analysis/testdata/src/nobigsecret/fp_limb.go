// Package bls mimics the real bls package layout for the nobigsecret
// analyzer: fp*.go, the constant-time curve files and the secret-scalar
// files must not import math/big; glv.go, which derives a constant from
// public values, may.
package bls

import (
	"math/big" // want `math/big imported in limb-arithmetic hot path fp_limb.go`
)

var _ = big.NewInt
