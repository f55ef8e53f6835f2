//go:build !amd64

package bls

// useADX is false off amd64: there is no assembly multiplier, and
// feMul/feSquare and the fe2 methods run their Go bodies.
const useADX = false

// The *ADX kernels are never called off amd64 (useADX is the constant
// false); they exist so the dispatch compiles everywhere.
func feMulADX(z, x, y *fe)             { feMulGeneric(z, x, y) }
func fe2AddADX(z, x, y *fe2)           { z.addGeneric(x, y) }
func fe2SubADX(z, x, y *fe2)           { z.subGeneric(x, y) }
func fe2MulByNonResidueADX(z, x *fe2)  { z.mulByNonResidueGeneric(x) }
func fe2SquareADX(z, x *fe2)           { z.squareGeneric(x) }
func fe2MulADX(z, x, y *fe2)           { z.mulGeneric(x, y) }
func fp4SquareADX(d0, d1, c0, c1 *fe2) { fp4SquareGeneric(d0, d1, c0, c1) }
