//go:build !amd64

package bls

// useADX is false off amd64: there is no assembly multiplier, and
// feMul/feSquare run feMulGeneric/feSquareGeneric.
const useADX = false

// feMulADX is never called off amd64 (useADX is the constant false); it
// exists so feMul's dispatch compiles everywhere.
func feMulADX(z, x, y *fe) { feMulGeneric(z, x, y) }
