//go:build !amd64

package bls

// useADX is false off amd64: there is no assembly multiplier, and
// feMul/feSquare, the fe2 methods, fe6.mul, fe12.mulByLine and
// fe12.cyclotomicSquare run their Go bodies.
const useADX = false

// The *ADX kernels are never called off amd64 (useADX is the constant
// false); they exist so the dispatch compiles everywhere.
func feMulADX(z, x, y *fe)                  { feMulGeneric(z, x, y) }
func feSquareADX(z, x *fe)                  { feSquareGeneric(z, x) }
func fe2AddADX(z, x, y *fe2)                { z.addGeneric(x, y) }
func fe2SubADX(z, x, y *fe2)                { z.subGeneric(x, y) }
func fe2MulByNonResidueADX(z, x *fe2)       { z.mulByNonResidueGeneric(x) }
func fe2SquareADX(z, x *fe2)                { z.squareGeneric(x) }
func fe2MulADX(z, x, y *fe2)                { z.mulGeneric(x, y) }
func fe6MulADX(z, x, y *fe6)                { z.mulGeneric(x, y) }
func fe12MulByLineADX(z *fe12, c0, c1 *fe2) { z.mulByLineGeneric(c0, c1) }
func cyclotomicSquareADX(z, x *fe12)        { z.cyclotomicSquareGeneric(x) }
func g1DoubleADX(r, p *G1)                  { g1DoubleGeneric(r, p) }
func g1AddMixedADX(r, p *G1, qx, qy *fe)    { g1AddMixedGeneric(r, p, qx, qy) }
func g1AddADX(r, p, q *G1)                  { g1AddGeneric(r, p, q) }
