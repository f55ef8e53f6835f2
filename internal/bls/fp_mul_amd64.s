// fp_mul_amd64.s is the field multiplier on CPUs with BMI2 and ADX:
// the same no-carry CIOS Montgomery multiplication as feMulGeneric
// (fp_unrolled.go), with each round's two carry chains on separate flags
// — MULXQ leaves the flags alone, ADCXQ carries through CF only, ADOXQ
// through OF only — so a round's high and low partial products are added
// in one pass instead of two. feMul calls it for every product and
// feSquare for every square (as x·x) once useADX is set (fp_mul_amd64.go).
//
// Contract, as feMulGeneric's: x may be any 384-bit value, y < p, the
// result is fully reduced (feFromBytes and feReduceWide rely on the wide
// x). The bound argument carries over unchanged: with p₅ < 2^61 a round
// maps its state t to
//
//	t' = (t + x_i·y + m·p) / 2^64  <  t/2^64 + 2p
//
// so from t = 0 every round stays below 2p + 1 < 2^382.3, the carry word
// above t₅ after a product half is below 2^62.3, and the closing
// additions of a round — m·p₅'s high word plus both carries plus that
// word — cannot overflow. The state after round 5 is below 2p and needs
// one subtraction of p, done here by SUBQ/SBBQ and a CMOVQCS select.
//
// There is no branch and no address computed from limb data: every load
// is off a pointer argument or the p<> table at a fixed offset, and the
// tail selects with CMOV. TestSecretKernelsBranchFree scans this file for
// conditional jumps and indexed operands, since the ctsecret analyzer
// does not read assembly.
//
// Registers: SI = x, DI = y; R8..R13 = t₀..t₅; BX = the carry word above
// t₅ (A in the CIOS write-up); DX = the MULX multiplicand (x_i, then m);
// AX and CX are scratch.

#include "textflag.h"

DATA p<>+0(SB)/8, $0xb9feffffffffaaab
DATA p<>+8(SB)/8, $0x1eabfffeb153ffff
DATA p<>+16(SB)/8, $0x6730d2a0f6b0f624
DATA p<>+24(SB)/8, $0x64774b84f38512bf
DATA p<>+32(SB)/8, $0x4b1ba7b6434bacd7
DATA p<>+40(SB)/8, $0x1a0111ea397fe69a
GLOBL p<>(SB), RODATA|NOPTR, $48

// MUL_FIRST: (BX, t) = x₀·y, the product half of round 0 (t = 0, so one
// chain on OF suffices).
#define MUL_FIRST \
	XORQ  AX, AX;          \
	MOVQ  0(SI), DX;       \
	MULXQ 0(DI), R8, R9;   \
	MULXQ 8(DI), AX, R10;  \
	ADOXQ AX, R9;          \
	MULXQ 16(DI), AX, R11; \
	ADOXQ AX, R10;         \
	MULXQ 24(DI), AX, R12; \
	ADOXQ AX, R11;         \
	MULXQ 32(DI), AX, R13; \
	ADOXQ AX, R12;         \
	MULXQ 40(DI), AX, BX;  \
	ADOXQ AX, R13;         \
	MOVQ  $0, AX;          \
	ADOXQ AX, BX

// MUL_ADD(off): (BX, t) = t + x_i·y with x_i at off(SI), the product half
// of rounds 1..5: low words ride OF, high words CF.
#define MUL_ADD(off) \
	XORQ  AX, AX;          \
	MOVQ  off(SI), DX;     \
	MULXQ 0(DI), AX, BX;   \
	ADOXQ AX, R8;          \
	ADCXQ BX, R9;          \
	MULXQ 8(DI), AX, BX;   \
	ADOXQ AX, R9;          \
	ADCXQ BX, R10;         \
	MULXQ 16(DI), AX, BX;  \
	ADOXQ AX, R10;         \
	ADCXQ BX, R11;         \
	MULXQ 24(DI), AX, BX;  \
	ADOXQ AX, R11;         \
	ADCXQ BX, R12;         \
	MULXQ 32(DI), AX, BX;  \
	ADOXQ AX, R12;         \
	ADCXQ BX, R13;         \
	MULXQ 40(DI), AX, BX;  \
	ADOXQ AX, R13;         \
	MOVQ  $0, AX;          \
	ADCXQ AX, BX;          \
	ADOXQ AX, BX

// REDUCE: t = (BX·2^384 + t + m·p) / 2^64 with m = t₀·(−p⁻¹) mod 2^64,
// the reduction half of every round. Word i of the sum is
// t_{i+1} + hi(m·p_i) on CF and lo(m·p_{i+1}) on OF.
#define REDUCE \
	MOVQ  $0x89f3fffcfffcfffd, DX; \
	IMULQ R8, DX;                  \
	XORQ  AX, AX;                  \
	MULXQ p<>+0(SB), AX, CX;       \
	ADCXQ R8, AX;                  \
	MOVQ  CX, R8;                  \
	ADCXQ R9, R8;                  \
	MULXQ p<>+8(SB), AX, R9;       \
	ADOXQ AX, R8;                  \
	ADCXQ R10, R9;                 \
	MULXQ p<>+16(SB), AX, R10;     \
	ADOXQ AX, R9;                  \
	ADCXQ R11, R10;                \
	MULXQ p<>+24(SB), AX, R11;     \
	ADOXQ AX, R10;                 \
	ADCXQ R12, R11;                \
	MULXQ p<>+32(SB), AX, R12;     \
	ADOXQ AX, R11;                 \
	ADCXQ R13, R12;                \
	MULXQ p<>+40(SB), AX, R13;     \
	ADOXQ AX, R12;                 \
	MOVQ  $0, AX;                  \
	ADCXQ AX, R13;                 \
	ADOXQ BX, R13

// func feMulADX(z, x, y *fe)
TEXT ·feMulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI

	MUL_FIRST
	REDUCE
	MUL_ADD(8)
	REDUCE
	MUL_ADD(16)
	REDUCE
	MUL_ADD(24)
	REDUCE
	MUL_ADD(32)
	REDUCE
	MUL_ADD(40)
	REDUCE

	// t < 2p: z = t − p, or t where that borrows.
	MOVQ    R8, AX
	SUBQ    p<>+0(SB), AX
	MOVQ    R9, BX
	SBBQ    p<>+8(SB), BX
	MOVQ    R10, CX
	SBBQ    p<>+16(SB), CX
	MOVQ    R11, DX
	SBBQ    p<>+24(SB), DX
	MOVQ    R12, SI
	SBBQ    p<>+32(SB), SI
	MOVQ    R13, DI
	SBBQ    p<>+40(SB), DI
	CMOVQCS R8, AX
	CMOVQCS R9, BX
	CMOVQCS R10, CX
	CMOVQCS R11, DX
	CMOVQCS R12, SI
	CMOVQCS R13, DI

	MOVQ z+0(FP), R8
	MOVQ AX, 0(R8)
	MOVQ BX, 8(R8)
	MOVQ CX, 16(R8)
	MOVQ DX, 24(R8)
	MOVQ SI, 32(R8)
	MOVQ DI, 40(R8)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET
