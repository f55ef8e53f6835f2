package bls

// useADX reports whether the CPU has BMI2 (MULX) and ADX (ADCX/ADOX),
// the instructions fp_mul_amd64.s is written in. It is set once, at
// package init, and the kernels' callers branch on nothing else.
var useADX = hasBMI2ADX()

// hasBMI2ADX reads CPUID leaf 7 (structured extended features), after
// checking that leaf 0 reports it exists: EBX bit 8 is BMI2, bit 19 ADX.
func hasBMI2ADX() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	_, ebx, _, _ := cpuid(7, 0)
	const bmi2, adx = 1 << 8, 1 << 19
	return ebx&bmi2 != 0 && ebx&adx != 0
}

// feMulADX sets z = x·y·R⁻¹ mod p (fp_mul_amd64.s); x may be any 384-bit
// value, y must be < p, the result is fully reduced. It needs BMI2 and
// ADX: call it only when useADX is set.
//
//go:noescape
func feMulADX(z, x, y *fe)

// feSquareADX sets z = x²·R⁻¹ mod p for x < p, fully reduced. Needs
// useADX.
//
//go:noescape
func feSquareADX(z, x *fe)

// The Fp2 kernels compute what the Go bodies of the fe2 methods do, for
// reduced operands and any aliasing. Need useADX.
//
//go:noescape
func fe2AddADX(z, x, y *fe2)

//go:noescape
func fe2SubADX(z, x, y *fe2)

//go:noescape
func fe2MulByNonResidueADX(z, x *fe2)

//go:noescape
func fe2SquareADX(z, x *fe2)

//go:noescape
func fe2MulADX(z, x, y *fe2)

// The tower kernels compute what the Go bodies of fe6.mul,
// fe12.mulByLine and fe12.cyclotomicSquare do, for reduced operands and
// any aliasing. Need useADX.
//
//go:noescape
func fe6MulADX(z, x, y *fe6)

//go:noescape
func fe12MulByLineADX(z *fe12, c0, c1 *fe2)

//go:noescape
func cyclotomicSquareADX(z, x *fe12)

// The G1 kernels compute what g1DoubleGeneric, g1AddMixedGeneric and
// g1AddGeneric do, for reduced coordinates and any aliasing. Need useADX.
//
//go:noescape
func g1DoubleADX(r, p *G1)

//go:noescape
func g1AddMixedADX(r, p *G1, qx, qy *fe)

//go:noescape
func g1AddADX(r, p, q *G1)

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
