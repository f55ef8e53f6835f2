// fp_mul_amd64.s is the field arithmetic on CPUs with BMI2 and ADX: the
// Fp multiplier feMulADX, and the Fp2 layer above it (add, sub,
// mulByNonResidue, square, mul) and Granger–Scott's fp4Square, one call
// per operation. feMul/feSquare and the fe2 methods call these kernels
// once useADX is set (fp_mul_amd64.go); their Go bodies are the path
// everywhere else and the differential oracles.
//
// The multiplier is the same no-carry CIOS Montgomery multiplication as
// feMulGeneric (fp_unrolled.go), with each round's two carry chains on
// separate flags — MULXQ leaves the flags alone, ADCXQ carries through CF
// only, ADOXQ through OF only — so a round's high and low partial
// products are added in one pass instead of two.
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
// one subtraction of p, done by SUB_P with SUBQ/SBBQ and a CMOVQCS select.
//
// Lazy reduction (Aranha, Karabina, Longa, Gebotys and López, EUROCRYPT
// 2011): fe2MulADX and fp4SquareADX form full 768-bit products
// (MUL_WIDE), add and subtract them unreduced, and reduce each output
// coordinate once (REDC_WIDE). REDC_WIDE takes any T < p·2^384: six
// reduction rounds over T's low half give (T_lo + M·p)/2^384 ≤ p, and
// adding T's high half (< p) leaves a value below 2p for SUB_P. Products
// of reduced operands are below p², so the bound admits sums of up to
// nine of them (p·2^384 > 9.8p²); a difference that may be negative is
// lifted by p·2^384 when its sign word says so (WIDE_FIX), which lands it
// in (p·2^384 − 4p², p·2^384) here. Karatsuba's a0·b1 + a1·b0 is below
// 2p² with the unreduced sums a0 + a1 < 2p and b0 + b1 < 2p.
//
// There is no branch and no address computed from limb data: every load
// is off a pointer argument, a constant offset off SP (the frame
// temporaries), or the p<> table at a fixed offset, and every select is
// a CMOV or a mask. TestSecretKernelsBranchFree scans this file for
// conditional jumps and indexed operands, since the ctsecret analyzer
// does not read assembly.
//
// Registers: SI = x, DI = y (the multiplier's operands); R8..R13 = t₀..t₅;
// BX = the carry word above t₅ (A in the CIOS write-up); DX = the MULX
// multiplicand (x_i, then m); AX and CX are scratch. A wide product
// rotates its seven-word window through R8..R13 and BX. R14 holds the
// fe2 that FE2_SQR_WIDE squares.

#include "textflag.h"

DATA p<>+0(SB)/8, $0xb9feffffffffaaab
DATA p<>+8(SB)/8, $0x1eabfffeb153ffff
DATA p<>+16(SB)/8, $0x6730d2a0f6b0f624
DATA p<>+24(SB)/8, $0x64774b84f38512bf
DATA p<>+32(SB)/8, $0x4b1ba7b6434bacd7
DATA p<>+40(SB)/8, $0x1a0111ea397fe69a
GLOBL p<>(SB), RODATA|NOPTR, $48

// MUL_ROW0(r0..r6): r6:…:r0 = x₀·y (one chain on OF suffices).
#define MUL_ROW0(r0, r1, r2, r3, r4, r5, r6) \
	XORQ  AX, AX;          \
	MOVQ  0(SI), DX;       \
	MULXQ 0(DI), r0, r1;   \
	MULXQ 8(DI), AX, r2;   \
	ADOXQ AX, r1;          \
	MULXQ 16(DI), AX, r3;  \
	ADOXQ AX, r2;          \
	MULXQ 24(DI), AX, r4;  \
	ADOXQ AX, r3;          \
	MULXQ 32(DI), AX, r5;  \
	ADOXQ AX, r4;          \
	MULXQ 40(DI), AX, r6;  \
	ADOXQ AX, r5;          \
	MOVQ  $0, AX;          \
	ADOXQ AX, r6

// MUL_ROW(off, r0..r6): r6:…:r0 = r5:…:r0 + x_i·y with x_i at off(SI):
// low words ride OF, high words CF.
#define MUL_ROW(off, r0, r1, r2, r3, r4, r5, r6) \
	XORQ  AX, AX;          \
	MOVQ  off(SI), DX;     \
	MULXQ 0(DI), AX, CX;   \
	ADOXQ AX, r0;          \
	ADCXQ CX, r1;          \
	MULXQ 8(DI), AX, CX;   \
	ADOXQ AX, r1;          \
	ADCXQ CX, r2;          \
	MULXQ 16(DI), AX, CX;  \
	ADOXQ AX, r2;          \
	ADCXQ CX, r3;          \
	MULXQ 24(DI), AX, CX;  \
	ADOXQ AX, r3;          \
	ADCXQ CX, r4;          \
	MULXQ 32(DI), AX, CX;  \
	ADOXQ AX, r4;          \
	ADCXQ CX, r5;          \
	MULXQ 40(DI), AX, r6;  \
	ADOXQ AX, r5;          \
	MOVQ  $0, AX;          \
	ADCXQ AX, r6;          \
	ADOXQ AX, r6

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

// MONT_MUL: t = x·y·R⁻¹ (mod p), t < 2p, six interleaved CIOS rounds.
#define MONT_MUL \
	MUL_ROW0(R8, R9, R10, R11, R12, R13, BX);     \
	REDUCE;                                       \
	MUL_ROW(8, R8, R9, R10, R11, R12, R13, BX);   \
	REDUCE;                                       \
	MUL_ROW(16, R8, R9, R10, R11, R12, R13, BX);  \
	REDUCE;                                       \
	MUL_ROW(24, R8, R9, R10, R11, R12, R13, BX);  \
	REDUCE;                                       \
	MUL_ROW(32, R8, R9, R10, R11, R12, R13, BX);  \
	REDUCE;                                       \
	MUL_ROW(40, R8, R9, R10, R11, R12, R13, BX);  \
	REDUCE

// SUB_P: AX, BX, CX, DX, SI, DI = t − p, or t where that borrows, for
// t < 2p in R8..R13.
#define SUB_P \
	MOVQ    R8, AX;        \
	SUBQ    p<>+0(SB), AX; \
	MOVQ    R9, BX;        \
	SBBQ    p<>+8(SB), BX; \
	MOVQ    R10, CX;       \
	SBBQ    p<>+16(SB), CX; \
	MOVQ    R11, DX;       \
	SBBQ    p<>+24(SB), DX; \
	MOVQ    R12, SI;       \
	SBBQ    p<>+32(SB), SI; \
	MOVQ    R13, DI;       \
	SBBQ    p<>+40(SB), DI; \
	CMOVQCS R8, AX;        \
	CMOVQCS R9, BX;        \
	CMOVQCS R10, CX;       \
	CMOVQCS R11, DX;       \
	CMOVQCS R12, SI;       \
	CMOVQCS R13, DI

// STORE_R8(off) and STORE_SP(off) write SUB_P's result at off(R8) and
// off(SP); STORE_T_SP(off) writes t at off(SP).
#define STORE_R8(off) \
	MOVQ AX, off+0(R8);  \
	MOVQ BX, off+8(R8);  \
	MOVQ CX, off+16(R8); \
	MOVQ DX, off+24(R8); \
	MOVQ SI, off+32(R8); \
	MOVQ DI, off+40(R8)

#define STORE_SP(off) \
	MOVQ AX, off+0(SP);  \
	MOVQ BX, off+8(SP);  \
	MOVQ CX, off+16(SP); \
	MOVQ DX, off+24(SP); \
	MOVQ SI, off+32(SP); \
	MOVQ DI, off+40(SP)

#define STORE_T_SP(off) \
	MOVQ R8, off+0(SP);   \
	MOVQ R9, off+8(SP);   \
	MOVQ R10, off+16(SP); \
	MOVQ R11, off+24(SP); \
	MOVQ R12, off+32(SP); \
	MOVQ R13, off+40(SP)

// ADD_XY(off): t = x + y, unreduced, for x at off(SI) and y at off(DI).
#define ADD_XY(off) \
	MOVQ off+0(SI), R8;   \
	ADDQ off+0(DI), R8;   \
	MOVQ off+8(SI), R9;   \
	ADCQ off+8(DI), R9;   \
	MOVQ off+16(SI), R10; \
	ADCQ off+16(DI), R10; \
	MOVQ off+24(SI), R11; \
	ADCQ off+24(DI), R11; \
	MOVQ off+32(SI), R12; \
	ADCQ off+32(DI), R12; \
	MOVQ off+40(SI), R13; \
	ADCQ off+40(DI), R13

// SUB_XY(off): t = x + (p − y) ∈ (0, 2p) for reduced x at off(SI) and y
// at off(DI), so that SUB_P yields x − y mod p.
#define SUB_XY(off) \
	MOVQ p<>+0(SB), R8;   \
	SUBQ off+0(DI), R8;   \
	MOVQ p<>+8(SB), R9;   \
	SBBQ off+8(DI), R9;   \
	MOVQ p<>+16(SB), R10; \
	SBBQ off+16(DI), R10; \
	MOVQ p<>+24(SB), R11; \
	SBBQ off+24(DI), R11; \
	MOVQ p<>+32(SB), R12; \
	SBBQ off+32(DI), R12; \
	MOVQ p<>+40(SB), R13; \
	SBBQ off+40(DI), R13; \
	ADDQ off+0(SI), R8;   \
	ADCQ off+8(SI), R9;   \
	ADCQ off+16(SI), R10; \
	ADCQ off+24(SI), R11; \
	ADCQ off+32(SI), R12; \
	ADCQ off+40(SI), R13

// MUL_WIDE(T): the 768-bit x·y into the twelve words at T(SP), one row
// per word of x, the window rotating by one register a row.
#define MUL_WIDE(T) \
	MUL_ROW0(R8, R9, R10, R11, R12, R13, BX);     \
	MOVQ R8, T+0(SP);                             \
	MUL_ROW(8, R9, R10, R11, R12, R13, BX, R8);   \
	MOVQ R9, T+8(SP);                             \
	MUL_ROW(16, R10, R11, R12, R13, BX, R8, R9);  \
	MOVQ R10, T+16(SP);                           \
	MUL_ROW(24, R11, R12, R13, BX, R8, R9, R10);  \
	MOVQ R11, T+24(SP);                           \
	MUL_ROW(32, R12, R13, BX, R8, R9, R10, R11);  \
	MOVQ R12, T+32(SP);                           \
	MUL_ROW(40, R13, BX, R8, R9, R10, R11, R12);  \
	MOVQ R13, T+40(SP);                           \
	MOVQ BX, T+48(SP);                            \
	MOVQ R8, T+56(SP);                            \
	MOVQ R9, T+64(SP);                            \
	MOVQ R10, T+72(SP);                           \
	MOVQ R11, T+80(SP);                           \
	MOVQ R12, T+88(SP)

// WIDE_ADD(D, S) and WIDE_SUB(D, S): D ± S on twelve words at D(SP) and
// S(SP), modulo 2^768.
#define WIDE_ADD(D, S) \
	MOVQ S+0(SP), AX;  ADDQ AX, D+0(SP);  \
	MOVQ S+8(SP), AX;  ADCQ AX, D+8(SP);  \
	MOVQ S+16(SP), AX; ADCQ AX, D+16(SP); \
	MOVQ S+24(SP), AX; ADCQ AX, D+24(SP); \
	MOVQ S+32(SP), AX; ADCQ AX, D+32(SP); \
	MOVQ S+40(SP), AX; ADCQ AX, D+40(SP); \
	MOVQ S+48(SP), AX; ADCQ AX, D+48(SP); \
	MOVQ S+56(SP), AX; ADCQ AX, D+56(SP); \
	MOVQ S+64(SP), AX; ADCQ AX, D+64(SP); \
	MOVQ S+72(SP), AX; ADCQ AX, D+72(SP); \
	MOVQ S+80(SP), AX; ADCQ AX, D+80(SP); \
	MOVQ S+88(SP), AX; ADCQ AX, D+88(SP)

#define WIDE_SUB(D, S) \
	MOVQ S+0(SP), AX;  SUBQ AX, D+0(SP);  \
	MOVQ S+8(SP), AX;  SBBQ AX, D+8(SP);  \
	MOVQ S+16(SP), AX; SBBQ AX, D+16(SP); \
	MOVQ S+24(SP), AX; SBBQ AX, D+24(SP); \
	MOVQ S+32(SP), AX; SBBQ AX, D+32(SP); \
	MOVQ S+40(SP), AX; SBBQ AX, D+40(SP); \
	MOVQ S+48(SP), AX; SBBQ AX, D+48(SP); \
	MOVQ S+56(SP), AX; SBBQ AX, D+56(SP); \
	MOVQ S+64(SP), AX; SBBQ AX, D+64(SP); \
	MOVQ S+72(SP), AX; SBBQ AX, D+72(SP); \
	MOVQ S+80(SP), AX; SBBQ AX, D+80(SP); \
	MOVQ S+88(SP), AX; SBBQ AX, D+88(SP)

// WIDE_FIX(D): D += p·2^384 when D is negative. Every value here is
// below 2^764 in magnitude, so the top word's sign bit is the sign.
#define WIDE_FIX(D) \
	MOVQ D+88(SP), CX;    \
	SARQ $63, CX;         \
	MOVQ p<>+0(SB), R8;   \
	ANDQ CX, R8;          \
	MOVQ p<>+8(SB), R9;   \
	ANDQ CX, R9;          \
	MOVQ p<>+16(SB), R10; \
	ANDQ CX, R10;         \
	MOVQ p<>+24(SB), R11; \
	ANDQ CX, R11;         \
	MOVQ p<>+32(SB), R12; \
	ANDQ CX, R12;         \
	MOVQ p<>+40(SB), R13; \
	ANDQ CX, R13;         \
	ADDQ R8, D+48(SP);    \
	ADCQ R9, D+56(SP);    \
	ADCQ R10, D+64(SP);   \
	ADCQ R11, D+72(SP);   \
	ADCQ R12, D+80(SP);   \
	ADCQ R13, D+88(SP)

// REDC_WIDE(D): t = D·R⁻¹ (mod p), t < 2p, for 0 ≤ D < p·2^384 at D(SP):
// six reduction rounds over the low half, then the high half added.
#define REDC_WIDE(D) \
	MOVQ D+0(SP), R8;   \
	MOVQ D+8(SP), R9;   \
	MOVQ D+16(SP), R10; \
	MOVQ D+24(SP), R11; \
	MOVQ D+32(SP), R12; \
	MOVQ D+40(SP), R13; \
	XORQ BX, BX;        \
	REDUCE;             \
	REDUCE;             \
	REDUCE;             \
	REDUCE;             \
	REDUCE;             \
	REDUCE;             \
	ADDQ D+48(SP), R8;  \
	ADCQ D+56(SP), R9;  \
	ADCQ D+64(SP), R10; \
	ADCQ D+72(SP), R11; \
	ADCQ D+80(SP), R12; \
	ADCQ D+88(SP), R13

// FE2_SQR_WIDE(D0, D1): complex squaring of the fe2 a + b·u at R14 into
// two wide products, D0 = (a + b)·(a − b mod p) and D1 = 2a·b, below 2p²
// each. Scratch: 576..719(SP).
#define FE2_SQR_WIDE(D0, D1) \
	MOVQ R14, SI;                      \
	LEAQ 48(R14), DI;                  \
	ADD_XY(0);                         \
	STORE_T_SP(576);                   \
	SUB_XY(0);                         \
	SUB_P;                             \
	STORE_SP(624);                     \
	MOVQ R14, SI;                      \
	MOVQ R14, DI;                      \
	ADD_XY(0);                         \
	STORE_T_SP(672);                   \
	LEAQ 576(SP), SI;                  \
	LEAQ 624(SP), DI;                  \
	MUL_WIDE(D0);                      \
	LEAQ 672(SP), SI;                  \
	LEAQ 48(R14), DI;                  \
	MUL_WIDE(D1)

// func feMulADX(z, x, y *fe)
TEXT ·feMulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MONT_MUL
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	RET

// func fe2AddADX(z, x, y *fe2)
TEXT ·fe2AddADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	ADD_XY(0)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	ADD_XY(48)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(48)
	RET

// func fe2SubADX(z, x, y *fe2)
TEXT ·fe2SubADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	SUB_XY(0)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	SUB_XY(48)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(48)
	RET

// func fe2MulByNonResidueADX(z, x *fe2): z = (a − b) + (a + b)·u, the
// sum parked in the frame until both coordinates of x are read.
TEXT ·fe2MulByNonResidueADX(SB), NOSPLIT, $48-16
	MOVQ x+8(FP), SI
	LEAQ 48(SI), DI
	ADD_XY(0)
	SUB_P
	STORE_SP(0)
	MOVQ x+8(FP), SI
	LEAQ 48(SI), DI
	SUB_XY(0)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	MOVQ 0(SP), AX
	MOVQ 8(SP), BX
	MOVQ 16(SP), CX
	MOVQ 24(SP), DX
	MOVQ 32(SP), SI
	MOVQ 40(SP), DI
	STORE_R8(48)
	RET

// func fe2SquareADX(z, x *fe2): complex squaring, z = (a + b)(a − b) +
// 2ab·u, with the unreduced a + b and 2a as the multiplier's x operand.
// Frame: a + b at 0, a − b mod p at 48, 2a at 96.
TEXT ·fe2SquareADX(SB), NOSPLIT, $144-16
	MOVQ x+8(FP), SI
	LEAQ 48(SI), DI
	ADD_XY(0)
	STORE_T_SP(0)
	SUB_XY(0)
	SUB_P
	STORE_SP(48)
	MOVQ x+8(FP), SI
	MOVQ SI, DI
	ADD_XY(0)
	STORE_T_SP(96)
	LEAQ 0(SP), SI
	LEAQ 48(SP), DI
	MONT_MUL
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	LEAQ 96(SP), SI
	MOVQ x+8(FP), DI
	ADDQ $48, DI
	MONT_MUL
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(48)
	RET

// func fe2MulADX(z, x, y *fe2): Karatsuba over three wide products and
// two reductions, z = (a0b0 − a1b1) + ((a0 + a1)(b0 + b1) − a0b0 − a1b1)·u.
// Frame: a0·b0 at 0, a1·b1 at 96, (a0 + a1)(b0 + b1) at 192, a0 + a1 at
// 288, b0 + b1 at 336.
TEXT ·fe2MulADX(SB), NOSPLIT, $384-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MUL_WIDE(0)
	ADDQ $48, SI
	ADDQ $48, DI
	MUL_WIDE(96)
	MOVQ x+8(FP), SI
	LEAQ 48(SI), DI
	ADD_XY(0)
	STORE_T_SP(288)
	MOVQ y+16(FP), SI
	LEAQ 48(SI), DI
	ADD_XY(0)
	STORE_T_SP(336)
	LEAQ 288(SP), SI
	LEAQ 336(SP), DI
	MUL_WIDE(192)

	WIDE_SUB(192, 0)
	WIDE_SUB(192, 96)
	REDC_WIDE(192)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(48)

	WIDE_SUB(0, 96)
	WIDE_FIX(0)
	REDC_WIDE(0)
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	RET

// func fp4SquareADX(d0, d1, c0, c1 *fe2): with A = c0², B = c1² and
// C = (c0 + c1)² as pairs of wide products, d0 = A + ξB =
// (A0 + B0 − B1) + (A1 + B0 + B1)·u and d1 = C − A − B: six wide
// products, four reductions. Frame: A at 0/96, B at 192/288, C at
// 384/480, FE2_SQR_WIDE's scratch at 576; c0 + c1 sits in B1's slot
// until B is formed.
TEXT ·fp4SquareADX(SB), NOSPLIT, $720-32
	MOVQ c0+16(FP), SI
	MOVQ c1+24(FP), DI
	ADD_XY(0)
	SUB_P
	STORE_SP(288)
	MOVQ c0+16(FP), SI
	MOVQ c1+24(FP), DI
	ADD_XY(48)
	SUB_P
	STORE_SP(336)
	LEAQ 288(SP), R14
	FE2_SQR_WIDE(384, 480)
	MOVQ c0+16(FP), R14
	FE2_SQR_WIDE(0, 96)
	MOVQ c1+24(FP), R14
	FE2_SQR_WIDE(192, 288)

	WIDE_SUB(384, 0)
	WIDE_SUB(384, 192)
	WIDE_FIX(384)
	REDC_WIDE(384)
	SUB_P
	MOVQ d1+8(FP), R8
	STORE_R8(0)

	WIDE_SUB(480, 96)
	WIDE_SUB(480, 288)
	WIDE_FIX(480)
	REDC_WIDE(480)
	SUB_P
	MOVQ d1+8(FP), R8
	STORE_R8(48)

	WIDE_ADD(0, 192)
	WIDE_SUB(0, 288)
	WIDE_FIX(0)
	REDC_WIDE(0)
	SUB_P
	MOVQ d0+0(FP), R8
	STORE_R8(0)

	WIDE_ADD(96, 192)
	WIDE_ADD(96, 288)
	REDC_WIDE(96)
	SUB_P
	MOVQ d0+0(FP), R8
	STORE_R8(48)
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
