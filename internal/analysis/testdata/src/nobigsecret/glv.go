package bls

import (
	"math/big" // ok: glv.go uses math/big on public constants and is outside the deny set
)

var _ = big.NewRat
