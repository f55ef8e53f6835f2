package bls

import (
	"math/big" // want `math/big imported in limb-arithmetic hot path scalar.go`
)

var _ = big.NewInt
