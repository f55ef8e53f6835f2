// fp_mul_amd64.s is the field arithmetic on CPUs with BMI2 and ADX: the
// Fp multiplier feMulADX and squaring feSquareADX, the Fp2 layer above
// them (add, sub, mulByNonResidue, square, mul), the three tower
// operations the pairing spends its time in — the Fp6 product
// (fe6MulADX), the Miller loop's product with a line (fe12MulByLineADX)
// and Granger–Scott's cyclotomic squaring (cyclotomicSquareADX) — and
// the G1 group law: the doubling (g1DoubleADX), the mixed addition
// (g1AddMixedADX) and the general addition (g1AddADX), one call per
// operation. feMul/feSquare, the fe2 methods, fe6.mul, fe12.mulByLine,
// fe12.cyclotomicSquare and the G1 formulas (g1DoubleJac, g1AddMixedJac,
// g1AddJac in curve.go) call these kernels once useADX is set
// (fp_mul_amd64.go); their Go bodies are the path everywhere else and
// the differential oracles.
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
// 2011): fe2MulADX and the tower kernels form full 768-bit products
// (mulWideAt<>), add and subtract them unreduced in a twelve-register
// accumulator (ACC_*), and reduce each output coordinate once
// (redcWideAt<>). The reduction takes any T < p·2^384: six rounds over
// T's low half give (T_lo + M·p)/2^384 ≤ p, and adding T's high half
// (< p) leaves a value below 2p for SUB_P. Products of reduced operands
// are below p², so the bound admits sums of up to nine of them (p·2^384 >
// 9.8p²); a value that may be negative is lifted by p·2^384 when its sign
// word says so (ACC_FIX), with a mask, which lands fe2MulADX's
// a0·b0 − a1·b1 in (p·2^384 − p², p·2^384). Karatsuba's a0·b1 + a1·b0 is
// below 2p² with the unreduced sums a0 + a1 < 2p and b0 + b1 < 2p.
//
// The wide-sum bound one level up. The Fp6 kernels add and subtract wide
// values modulo 2^768 and never reduce a narrow sum: x_j + x_k is below
// 2p and its coordinates' own sum below 4p < 2^383, so every product is
// exact and every Karatsuba identity holds over the integers. Each output
// coordinate then equals its schoolbook value — a signed sum of at most
// three products of reduced Fp2 elements, each with real part in
// (−p², p²) and imaginary part in [0, 2p²) — whatever the intermediate
// sums did. fe6MulADX's coordinates lie within ±8p² and those of the
// sparse product under fe12MulByLineADX within (−4p², 5p²), so the
// two's-complement sign word is the sign and one masked add of p·2^384
// (ACC_FIX) puts each in [0, p·2^384). A narrow term n < p (the line's
// v·A and v²·B, reduced first) joins a wide sum as n·2^384, which the
// reduction divides back to n: the sum is then below 2p·2^384, the
// reduction below 3p, and two conditional subtractions (SUB_2P) finish
// it. The cyclotomic squaring's 3t ∓ 2x steps would exceed the bound in
// the wide domain (3·6p²), so they run on reduced t, in three reduced
// steps each.
//
// The squaring (sqrWideAt<>) forms the 15 cross products x_i·x_j, i < j,
// doubles their sum and adds the six x_i², 21 MULXQ where a product
// needs 36, and reduces the 768-bit x² < p² like any wide value.
//
// The G1 kernels keep no wide value: every coordinate, temporary and
// output is a reduced field element in the frame, every product one call
// to montMulAt<> (feMulADX's body) or montSqrAt<> (the squaring and one
// reduction), and every sum or difference a register chain ending in a
// conditional subtraction or a masked add-back of p. Their products are
// ordered so that independent ones run back to back, which lets the CPU
// overlap them; the doubling forms D = 4XB as one product.
//
// Every wide product and reduction is a call to one of the two shared
// bodies, and each of the three Fp4 squarings under the cyclotomic
// squaring a call to fp4SquareAt<>: fully unrolled, the tower kernels were
// 31 to 57 KB of code each, more than the L1 instruction cache, and the
// cyclotomic squaring ran slower than the Go calls it replaced. The
// callees are NOSPLIT and take their pointers in registers. The tower
// kernels' frames (0.7 to 2.6 KB) exceed what the linker allows a NOSPLIT
// chain (≈ 800 bytes), so they are not NOSPLIT and the assembler inserts
// the stack check.
//
// There is no branch and no address computed from limb data: every load
// is off a pointer argument, a constant offset off SP (the frame
// temporaries), a pointer into the frame, or the p<> table at a fixed
// offset, and every select is a CMOV or a mask.
// TestSecretKernelsBranchFree scans this file for conditional jumps and
// indexed operands, since the ctsecret analyzer does not read assembly.
//
// Registers: SI = x, DI = y (the multiplier's operands); R8..R13 = t₀..t₅;
// BX = the carry word above t₅ (A in the CIOS write-up); DX = the MULX
// multiplicand (x_i, then m); AX and CX are scratch. A wide product
// rotates its seven-word window through R8..R13 and BX. R14 holds the
// wide value mulWideAt<>, sqrWideAt<> and redcWideAt<> write and read,
// the fe that montMulAt<> and montSqrAt<> write, the fe2 that
// FE2_SQR_WIDE squares, and ACC_FIX's sign mask. The wide accumulator is
// R8..R13, AX, BX, CX, DX, SI, DI, low word first.

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

// MUL_WIDE_AT(T): the 768-bit x·y for x at SI and y at DI into the twelve
// words at T(SP). REDC_AT(D): t = D·R⁻¹ (mod p) in R8..R13 for the wide
// D at D(SP). Both call the shared bodies through R14.
#define MUL_WIDE_AT(T) \
	LEAQ T(SP), R14; \
	CALL mulWideAt<>(SB)

#define REDC_AT(D) \
	LEAQ D(SP), R14; \
	CALL redcWideAt<>(SB)

// FE2_SQR_WIDE(D0, D1): complex squaring of the fe2 a + b·u at R14 into
// two wide products, D0 = (a + b)·(a − b mod p) and D1 = 2a·b, below 2p²
// each. Scratch: 576..719(SP).
#define FE2_SQR_WIDE(D0, D1) \
	MOVQ R14, SI;     \
	LEAQ 48(R14), DI; \
	ADD_XY(0);        \
	STORE_T_SP(576);  \
	SUB_XY(0);        \
	SUB_P;            \
	STORE_SP(624);    \
	MOVQ R14, SI;     \
	MOVQ R14, DI;     \
	ADD_XY(0);        \
	STORE_T_SP(672);  \
	LEAQ 48(R14), DI; \
	LEAQ 672(SP), SI; \
	MUL_WIDE_AT(D1);  \
	LEAQ 576(SP), SI; \
	LEAQ 624(SP), DI; \
	MUL_WIDE_AT(D0)

// The lazily reduced kernels combine wide products in a twelve-register
// accumulator, low word first: R8..R13, AX, BX, CX, DX, SI, DI.
// ACC_LOAD(S) sets it to the wide value at S(SP); ACC_ADD(S) and
// ACC_SUB(S) add and subtract one, modulo 2^768.
#define ACC_LOAD(S) \
	MOVQ S+0(SP), R8;   \
	MOVQ S+8(SP), R9;   \
	MOVQ S+16(SP), R10; \
	MOVQ S+24(SP), R11; \
	MOVQ S+32(SP), R12; \
	MOVQ S+40(SP), R13; \
	MOVQ S+48(SP), AX;  \
	MOVQ S+56(SP), BX;  \
	MOVQ S+64(SP), CX;  \
	MOVQ S+72(SP), DX;  \
	MOVQ S+80(SP), SI;  \
	MOVQ S+88(SP), DI

#define ACC_ADD(S) \
	ADDQ S+0(SP), R8;   \
	ADCQ S+8(SP), R9;   \
	ADCQ S+16(SP), R10; \
	ADCQ S+24(SP), R11; \
	ADCQ S+32(SP), R12; \
	ADCQ S+40(SP), R13; \
	ADCQ S+48(SP), AX;  \
	ADCQ S+56(SP), BX;  \
	ADCQ S+64(SP), CX;  \
	ADCQ S+72(SP), DX;  \
	ADCQ S+80(SP), SI;  \
	ADCQ S+88(SP), DI

#define ACC_SUB(S) \
	SUBQ S+0(SP), R8;   \
	SBBQ S+8(SP), R9;   \
	SBBQ S+16(SP), R10; \
	SBBQ S+24(SP), R11; \
	SBBQ S+32(SP), R12; \
	SBBQ S+40(SP), R13; \
	SBBQ S+48(SP), AX;  \
	SBBQ S+56(SP), BX;  \
	SBBQ S+64(SP), CX;  \
	SBBQ S+72(SP), DX;  \
	SBBQ S+80(SP), SI;  \
	SBBQ S+88(SP), DI

// ACC_STORE_LO(D) and ACC_STORE_HI(D) store the accumulator's low and
// high halves at D(SP) and D+48(SP), where REDC_AT(D) reads them.
// ACC_FIX(D) stores the low half and then adds p to the high half when
// the accumulator is negative (a mask in R14 from its sign word),
// which lifts a value in (−p·2^384, 0) into [0, p·2^384).
#define ACC_STORE_LO(D) \
	MOVQ R8, D+0(SP);   \
	MOVQ R9, D+8(SP);   \
	MOVQ R10, D+16(SP); \
	MOVQ R11, D+24(SP); \
	MOVQ R12, D+32(SP); \
	MOVQ R13, D+40(SP)

#define ACC_STORE_HI(D) \
	MOVQ AX, D+48(SP); \
	MOVQ BX, D+56(SP); \
	MOVQ CX, D+64(SP); \
	MOVQ DX, D+72(SP); \
	MOVQ SI, D+80(SP); \
	MOVQ DI, D+88(SP)

#define ACC_FIX(D) \
	ACC_STORE_LO(D);      \
	MOVQ DI, R14;         \
	SARQ $63, R14;        \
	MOVQ p<>+0(SB), R8;   \
	ANDQ R14, R8;         \
	MOVQ p<>+8(SB), R9;   \
	ANDQ R14, R9;         \
	MOVQ p<>+16(SB), R10; \
	ANDQ R14, R10;        \
	MOVQ p<>+24(SB), R11; \
	ANDQ R14, R11;        \
	MOVQ p<>+32(SB), R12; \
	ANDQ R14, R12;        \
	MOVQ p<>+40(SB), R13; \
	ANDQ R14, R13;        \
	ADDQ R8, AX;          \
	ADCQ R9, BX;          \
	ADCQ R10, CX;         \
	ADCQ R11, DX;         \
	ADCQ R12, SI;         \
	ADCQ R13, DI

// ADD_PAIR(S): with SI and DI at two fe2s, the unreduced coordinate
// sums x + y into S(SP) and S+48(SP).
#define ADD_PAIR(S) \
	ADD_XY(0);         \
	STORE_T_SP(S);     \
	ADD_XY(48);        \
	STORE_T_SP(S+48)

// FE2_MUL_WIDE(A, B, C, S): for the fe2s x = a0 + a1·u at SI and
// y = b0 + b1·u at DI, the three wide Karatsuba products A = a0·b0,
// B = a1·b1 and C = (a0 + a1)(b0 + b1), so that x·y = (A − B) +
// (C − A − B)·u exactly over the integers. The coordinates may be
// unreduced sums below 2p: their own sums stay below 4p < 2^383.
// Scratch: the two sums at S(SP) and S+48(SP); R14 holds y + 48 while
// they are formed.
#define FE2_MUL_WIDE(A, B, C, S) \
	MUL_WIDE_AT(A);    \
	ADDQ $48, SI;      \
	ADDQ $48, DI;      \
	MUL_WIDE_AT(B);    \
	MOVQ DI, R14;      \
	LEAQ -48(SI), DI;  \
	ADD_XY(0);         \
	STORE_T_SP(S);     \
	MOVQ R14, SI;      \
	LEAQ -48(R14), DI; \
	ADD_XY(0);         \
	STORE_T_SP(S+48);  \
	LEAQ S(SP), SI;    \
	LEAQ S+48(SP), DI; \
	MUL_WIDE_AT(C)

// REDC_OUT(D, off): z's coordinate at off = the reduced wide value at
// D(SP), for 0 ≤ D < p·2^384 (ACC_FIX lifts a negative one there).
#define REDC_OUT(D, off) \
	REDC_AT(D);         \
	SUB_P;              \
	MOVQ z+0(FP), R8;   \
	STORE_R8(off)

// ACC_ADD_HI(N) adds the narrow value at N(SP) to the accumulator's high
// half: a narrow term n joins a wide sum as n·2^384, which the reduction
// divides back to n.
#define ACC_ADD_HI(N) \
	ADDQ N+0(SP), AX;  \
	ADCQ N+8(SP), BX;  \
	ADCQ N+16(SP), CX; \
	ADCQ N+24(SP), DX; \
	ADCQ N+32(SP), SI; \
	ADCQ N+40(SP), DI

// SUB_2P: AX, BX, CX, DX, SI, DI = t mod p for t < 3p in R8..R13.
#define SUB_2P \
	SUB_P;        \
	MOVQ AX, R8;  \
	MOVQ BX, R9;  \
	MOVQ CX, R10; \
	MOVQ DX, R11; \
	MOVQ SI, R12; \
	MOVQ DI, R13; \
	SUB_P

// XI_NARROW(off, N): ξ·w = (w0 − w1) + (w0 + w1)·u for the fe2 w at
// off(z), reduced, into N(SP).
#define XI_NARROW(off, N) \
	MOVQ z+0(FP), SI;      \
	LEAQ off+48(SI), DI;   \
	LEAQ off(SI), SI;      \
	SUB_XY(0);             \
	SUB_P;                 \
	STORE_SP(N);           \
	MOVQ z+0(FP), SI;      \
	LEAQ off+48(SI), DI;   \
	LEAQ off(SI), SI;      \
	ADD_XY(0);             \
	SUB_P;                 \
	STORE_SP(N+48)

// COPY_FE(src, off, N) and COPY_FE2(src, off, N): the fe or fe2 at
// off(src) into N(SP), for a pointer argument src.
#define COPY_FE(src, off, N) \
	MOVQ src, SI;         \
	MOVQ off+0(SI), R8;   \
	MOVQ off+8(SI), R9;   \
	MOVQ off+16(SI), R10; \
	MOVQ off+24(SI), R11; \
	MOVQ off+32(SI), R12; \
	MOVQ off+40(SI), R13; \
	STORE_T_SP(N)

#define COPY_FE2(src, off, N) \
	COPY_FE(src, off, N); \
	COPY_FE(src, off+48, N+48)

// MUL_BY_01_WIDE(off): the five Fp2 products of the fe6 a = a0 + a1·v +
// a2·v² at off(z) by c0 + c1·v, as FE2_MUL_WIDE triples: P0 = a0·c0 at 0,
// P1 = a1·c1 at 288, P2 = (a1 + a2)·c1 at 576, P3 = (a0 + a1)(c0 + c1) at
// 864, P4 = (a0 + a2)·c0 at 1152. Needs c0, c1 and c0 + c1 at 2400, 2496
// and 2016(SP); scratch: 2112..2303(SP).
#define MUL_BY_01_WIDE(off) \
	MOVQ z+0(FP), SI;                    \
	LEAQ off(SI), SI;                    \
	LEAQ 2400(SP), DI;                   \
	FE2_MUL_WIDE(0, 96, 192, 2208);      \
	MOVQ z+0(FP), SI;                    \
	LEAQ off+96(SI), SI;                 \
	LEAQ 2496(SP), DI;                   \
	FE2_MUL_WIDE(288, 384, 480, 2208);   \
	MOVQ z+0(FP), SI;                    \
	LEAQ off+192(SI), DI;                \
	LEAQ off+96(SI), SI;                 \
	ADD_PAIR(2112);                      \
	LEAQ 2112(SP), SI;                   \
	LEAQ 2496(SP), DI;                   \
	FE2_MUL_WIDE(576, 672, 768, 2208);   \
	MOVQ z+0(FP), SI;                    \
	LEAQ off+96(SI), DI;                 \
	LEAQ off(SI), SI;                    \
	ADD_PAIR(2112);                      \
	LEAQ 2112(SP), SI;                   \
	LEAQ 2016(SP), DI;                   \
	FE2_MUL_WIDE(864, 960, 1056, 2208);  \
	MOVQ z+0(FP), SI;                    \
	LEAQ off+192(SI), DI;                \
	LEAQ off(SI), SI;                    \
	ADD_PAIR(2112);                      \
	LEAQ 2112(SP), SI;                   \
	LEAQ 2400(SP), DI;                   \
	FE2_MUL_WIDE(1152, 1248, 1344, 2208)

// The six coordinates of a·(c0 + c1·v) from MUL_BY_01_WIDE's triples
// (Ak, Bk, Ck) = Pk, as signed sums in the accumulator:
//
//	b0 = P0 + ξ(P2 − P1) = (A0 − B0 + 2A2 − 2A1 − C2 + C1)
//	                     + (C0 − A0 − B0 − 2B2 + 2B1 + C2 − C1)·u
//	b1 = P3 − P0 − P1    = (A3 − B3 − A0 + B0 − A1 + B1)
//	                     + (C3 − A3 − B3 − C0 + A0 + B0 − C1 + A1 + B1)·u
//	b2 = P4 − P0 + P1    = (A4 − B4 − A0 + B0 + A1 − B1)
//	                     + (C4 − A4 − B4 − C0 + A0 + B0 + C1 − A1 − B1)·u
//
// Over the integers these are b0 = a0c0 + ξa2c1, b1 = a0c1 + a1c0 and
// b2 = a2c0 + a1c1, so b0 ∈ (−4p², 2p²) + (−p², 5p²)·u and b1, b2 ∈
// (−2p², 2p²) + [0, 4p²)·u.
#define MB01_B0_RE \
	ACC_LOAD(0);  \
	ACC_SUB(96);  \
	ACC_ADD(576); \
	ACC_ADD(576); \
	ACC_SUB(288); \
	ACC_SUB(288); \
	ACC_SUB(768); \
	ACC_ADD(480)

#define MB01_B0_IM \
	ACC_LOAD(192); \
	ACC_SUB(0);    \
	ACC_SUB(96);   \
	ACC_SUB(672);  \
	ACC_SUB(672);  \
	ACC_ADD(384);  \
	ACC_ADD(384);  \
	ACC_ADD(768);  \
	ACC_SUB(480)

#define MB01_B1_RE \
	ACC_LOAD(864); \
	ACC_SUB(960);  \
	ACC_SUB(0);    \
	ACC_ADD(96);   \
	ACC_SUB(288);  \
	ACC_ADD(384)

#define MB01_B1_IM \
	ACC_LOAD(1056); \
	ACC_SUB(864);   \
	ACC_SUB(960);   \
	ACC_SUB(192);   \
	ACC_ADD(0);     \
	ACC_ADD(96);    \
	ACC_SUB(480);   \
	ACC_ADD(288);   \
	ACC_ADD(384)

#define MB01_B2_RE \
	ACC_LOAD(1152); \
	ACC_SUB(1248);  \
	ACC_SUB(0);     \
	ACC_ADD(96);    \
	ACC_ADD(288);   \
	ACC_SUB(384)

#define MB01_B2_IM \
	ACC_LOAD(1344); \
	ACC_SUB(1152);  \
	ACC_SUB(1248);  \
	ACC_SUB(192);   \
	ACC_ADD(0);     \
	ACC_ADD(96);    \
	ACC_ADD(480);   \
	ACC_SUB(288);   \
	ACC_SUB(384)

// LINE_OUT(N, off): z's coordinate at off = the accumulator plus the
// narrow term at N(SP). ACC_FIX leaves the wide part below p·2^384 and
// the term is below p, so the sum is below 2p·2^384, the reduction
// below 3p, and SUB_2P reduces it. Spill: 2304(SP).
#define LINE_OUT(N, off) \
	ACC_FIX(2304);      \
	ACC_ADD_HI(N);      \
	ACC_STORE_HI(2304); \
	REDC_AT(2304);      \
	SUB_2P;             \
	MOVQ z+0(FP), R8;   \
	STORE_R8(off)

// CYC_TAIL(T, X): from t ± x (below 2p) in R8..R13, z's coordinate at X =
// 3t ± 2x = t + 2(t ± x) for the reduced t at T(SP), in three reduced
// steps.
#define CYC_TAIL(T, X) \
	SUB_P;                \
	MOVQ AX, R8;          \
	ADDQ AX, R8;          \
	MOVQ BX, R9;          \
	ADCQ BX, R9;          \
	MOVQ CX, R10;         \
	ADCQ CX, R10;         \
	MOVQ DX, R11;         \
	ADCQ DX, R11;         \
	MOVQ SI, R12;         \
	ADCQ SI, R12;         \
	MOVQ DI, R13;         \
	ADCQ DI, R13;         \
	SUB_P;                \
	MOVQ T+0(SP), R8;     \
	ADDQ AX, R8;          \
	MOVQ T+8(SP), R9;     \
	ADCQ BX, R9;          \
	MOVQ T+16(SP), R10;   \
	ADCQ CX, R10;         \
	MOVQ T+24(SP), R11;   \
	ADCQ DX, R11;         \
	MOVQ T+32(SP), R12;   \
	ADCQ SI, R12;         \
	MOVQ T+40(SP), R13;   \
	ADCQ DI, R13;         \
	SUB_P;                \
	MOVQ z+0(FP), R8;     \
	STORE_R8(X)

// CYC_SUB(T, X) and CYC_ADD(T, X): z's coordinate at X = 3t − 2x and
// 3t + 2x for the t at T(SP) and x's coordinate at X.
#define CYC_SUB(T, X) \
	LEAQ T(SP), SI;   \
	MOVQ x+8(FP), DI; \
	LEAQ X(DI), DI;   \
	SUB_XY(0);        \
	CYC_TAIL(T, X)

#define CYC_ADD(T, X) \
	LEAQ T(SP), SI;   \
	MOVQ x+8(FP), DI; \
	LEAQ X(DI), DI;   \
	ADD_XY(0);        \
	CYC_TAIL(T, X)

// mulWideAt<> sets the twelve words at R14 to the 768-bit x·y for x at SI
// and y at DI, one row per word of x, the window rotating by one register
// a row. It clobbers AX, BX, CX, DX and R8..R13.
TEXT mulWideAt<>(SB), NOSPLIT, $0-0
	MUL_ROW0(R8, R9, R10, R11, R12, R13, BX)
	MOVQ R8, 0(R14)
	MUL_ROW(8, R9, R10, R11, R12, R13, BX, R8)
	MOVQ R9, 8(R14)
	MUL_ROW(16, R10, R11, R12, R13, BX, R8, R9)
	MOVQ R10, 16(R14)
	MUL_ROW(24, R11, R12, R13, BX, R8, R9, R10)
	MOVQ R11, 24(R14)
	MUL_ROW(32, R12, R13, BX, R8, R9, R10, R11)
	MOVQ R12, 32(R14)
	MUL_ROW(40, R13, BX, R8, R9, R10, R11, R12)
	MOVQ R13, 40(R14)
	MOVQ BX, 48(R14)
	MOVQ R8, 56(R14)
	MOVQ R9, 64(R14)
	MOVQ R10, 72(R14)
	MOVQ R11, 80(R14)
	MOVQ R12, 88(R14)
	RET

// redcWideAt<> sets t in R8..R13 to T·R⁻¹ (mod p) for the wide T at R14:
// six reduction rounds over the low half, then the high half added, so
// t < 2p for T < p·2^384 and t < 3p for T < 2p·2^384. It clobbers AX, BX,
// CX and DX.
TEXT redcWideAt<>(SB), NOSPLIT, $0-0
	MOVQ 0(R14), R8
	MOVQ 8(R14), R9
	MOVQ 16(R14), R10
	MOVQ 24(R14), R11
	MOVQ 32(R14), R12
	MOVQ 40(R14), R13
	XORQ BX, BX
	REDUCE
	REDUCE
	REDUCE
	REDUCE
	REDUCE
	REDUCE
	ADDQ 48(R14), R8
	ADCQ 56(R14), R9
	ADCQ 64(R14), R10
	ADCQ 72(R14), R11
	ADCQ 80(R14), R12
	ADCQ 88(R14), R13
	RET

// func feMulADX(z, x, y *fe)
TEXT ·feMulADX(SB), NOSPLIT, $0-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	MONT_MUL
	SUB_P
	MOVQ z+0(FP), R8
	STORE_R8(0)
	RET

// func feSquareADX(z, x *fe): z = x²·R⁻¹ mod p for x < p, fully
// reduced, through montSqrAt<>.
TEXT ·feSquareADX(SB), NOSPLIT, $0-16
	MOVQ x+8(FP), SI
	MOVQ z+0(FP), R14
	CALL montSqrAt<>(SB)
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
	FE2_MUL_WIDE(0, 96, 192, 288)

	ACC_LOAD(192)
	ACC_SUB(0)
	ACC_SUB(96)
	ACC_STORE_LO(192)
	ACC_STORE_HI(192)
	REDC_OUT(192, 48)

	ACC_LOAD(0)
	ACC_SUB(96)
	ACC_FIX(0)
	ACC_STORE_HI(0)
	REDC_OUT(0, 0)
	RET

// func fe6MulADX(z, x, y *fe6): Karatsuba over Fp2 twice over, 18 wide
// products and one reduction per output coordinate. With t_i = x_i·y_i
// and M_jk = (x_j + x_k)(y_j + y_k), each a triple (A, B, C) from
// FE2_MUL_WIDE on unreduced sums,
//
//	c0 = t0 + ξ(M12 − t1 − t2),  c1 = M01 − t0 − t1 + ξt2,  c2 = M02 − t0 − t2 + t1,
//
// which expands (ξ = 1 + u) to the signed sums of products below, each
// equal over the integers to its schoolbook value: c0 = x0y0 + ξ(x1y2 +
// x2y1), c1 = x0y1 + x1y0 + ξx2y2, c2 = x0y2 + x2y0 + x1y1. The real part
// of a product of reduced fe2s lies in (−p², p²), the imaginary part in
// [0, 2p²), so the coordinates lie in c0: (−7p², 3p²) + (−2p², 8p²)·u,
// c1: (−5p², 3p²) + (−p², 7p²)·u, c2: (−3p², 3p²) + [0, 6p²)·u — every one
// within ±8p² < p·2^384, which ACC_FIX lifts into the reduction's range.
// x and y are read in full before z is written, so any aliasing is safe.
// Frame: product k's triple at 288k (k = t0, t1, t2, M12, M01, M02), the
// sums x_j + x_k and y_j + y_k at 1728 and 1824, FE2_MUL_WIDE's scratch
// at 1920, the accumulator's spill at 2016.
TEXT ·fe6MulADX(SB), $2112-24
	MOVQ x+8(FP), SI
	MOVQ y+16(FP), DI
	FE2_MUL_WIDE(0, 96, 192, 1920)
	MOVQ x+8(FP), SI
	ADDQ $96, SI
	MOVQ y+16(FP), DI
	ADDQ $96, DI
	FE2_MUL_WIDE(288, 384, 480, 1920)
	MOVQ x+8(FP), SI
	ADDQ $192, SI
	MOVQ y+16(FP), DI
	ADDQ $192, DI
	FE2_MUL_WIDE(576, 672, 768, 1920)

	MOVQ x+8(FP), SI
	LEAQ 192(SI), DI
	ADDQ $96, SI
	ADD_PAIR(1728)
	MOVQ y+16(FP), SI
	LEAQ 192(SI), DI
	ADDQ $96, SI
	ADD_PAIR(1824)
	LEAQ 1728(SP), SI
	LEAQ 1824(SP), DI
	FE2_MUL_WIDE(864, 960, 1056, 1920)

	MOVQ x+8(FP), SI
	LEAQ 96(SI), DI
	ADD_PAIR(1728)
	MOVQ y+16(FP), SI
	LEAQ 96(SI), DI
	ADD_PAIR(1824)
	LEAQ 1728(SP), SI
	LEAQ 1824(SP), DI
	FE2_MUL_WIDE(1152, 1248, 1344, 1920)

	MOVQ x+8(FP), SI
	LEAQ 192(SI), DI
	ADD_PAIR(1728)
	MOVQ y+16(FP), SI
	LEAQ 192(SI), DI
	ADD_PAIR(1824)
	LEAQ 1728(SP), SI
	LEAQ 1824(SP), DI
	FE2_MUL_WIDE(1440, 1536, 1632, 1920)

	// c0 = (A0 − B0 + 2A3 − C3 − 2A1 + C1 − 2A2 + C2)
	//    + (C0 − A0 − B0 − 2B3 + C3 + 2B1 − C1 + 2B2 − C2)·u
	ACC_LOAD(0)
	ACC_SUB(96)
	ACC_ADD(864)
	ACC_ADD(864)
	ACC_SUB(1056)
	ACC_SUB(288)
	ACC_SUB(288)
	ACC_ADD(480)
	ACC_SUB(576)
	ACC_SUB(576)
	ACC_ADD(768)
	ACC_FIX(2016)
	ACC_STORE_HI(2016)
	REDC_OUT(2016, 0)

	ACC_LOAD(192)
	ACC_SUB(0)
	ACC_SUB(96)
	ACC_SUB(960)
	ACC_SUB(960)
	ACC_ADD(1056)
	ACC_ADD(384)
	ACC_ADD(384)
	ACC_SUB(480)
	ACC_ADD(672)
	ACC_ADD(672)
	ACC_SUB(768)
	ACC_FIX(2016)
	ACC_STORE_HI(2016)
	REDC_OUT(2016, 48)

	// c1 = (A4 − B4 − A0 + B0 − A1 + B1 + 2A2 − C2)
	//    + (C4 − A4 − B4 − C0 + A0 + B0 − C1 + A1 + B1 − 2B2 + C2)·u
	ACC_LOAD(1152)
	ACC_SUB(1248)
	ACC_SUB(0)
	ACC_ADD(96)
	ACC_SUB(288)
	ACC_ADD(384)
	ACC_ADD(576)
	ACC_ADD(576)
	ACC_SUB(768)
	ACC_FIX(2016)
	ACC_STORE_HI(2016)
	REDC_OUT(2016, 96)

	ACC_LOAD(1344)
	ACC_SUB(1152)
	ACC_SUB(1248)
	ACC_SUB(192)
	ACC_ADD(0)
	ACC_ADD(96)
	ACC_SUB(480)
	ACC_ADD(288)
	ACC_ADD(384)
	ACC_SUB(672)
	ACC_SUB(672)
	ACC_ADD(768)
	ACC_FIX(2016)
	ACC_STORE_HI(2016)
	REDC_OUT(2016, 144)

	// c2 = (A5 − B5 − A0 + B0 − A2 + B2 + A1 − B1)
	//    + (C5 − A5 − B5 − C0 + A0 + B0 − C2 + A2 + B2 + C1 − A1 − B1)·u
	ACC_LOAD(1440)
	ACC_SUB(1536)
	ACC_SUB(0)
	ACC_ADD(96)
	ACC_SUB(576)
	ACC_ADD(672)
	ACC_ADD(288)
	ACC_SUB(384)
	ACC_FIX(2016)
	ACC_STORE_HI(2016)
	REDC_OUT(2016, 192)

	ACC_LOAD(1632)
	ACC_SUB(1440)
	ACC_SUB(1536)
	ACC_SUB(192)
	ACC_ADD(0)
	ACC_ADD(96)
	ACC_SUB(768)
	ACC_ADD(576)
	ACC_ADD(672)
	ACC_ADD(480)
	ACC_SUB(288)
	ACC_SUB(384)
	ACC_FIX(2016)
	ACC_STORE_HI(2016)
	REDC_OUT(2016, 240)
	RET

// func fe12MulByLineADX(z *fe12, c0, c1 *fe2): z·(C + v·w) for the line
// C = c0 + c1·v. With z = A + B·w, (A + B·w)(C + v·w) = (AC + v²B) +
// (vA + BC)·w: AC and BC are MUL_BY_01_WIDE's 30 wide products, and the
// coordinates of v²B = ξb1 + ξb2·v + b0·v² and vA = ξa2 + a0·v + a1·v²
// join them as narrow terms (LINE_OUT), one reduction per coordinate.
// AC is written into z.a0 before BC is formed, so the narrow terms and
// the line are copied into the frame first, and z.a1 is read before it is
// written: any aliasing is safe. Frame: the triples at
// 0..1439, reused for BC; ξa2, a0, a1, ξb1, ξb2, b0 at 1440 + 96k; c0 + c1
// at 2016; MUL_BY_01_WIDE's scratch at 2112; the spill at 2304; c0 and c1
// at 2400 and 2496.
TEXT ·fe12MulByLineADX(SB), $2592-24
	XI_NARROW(192, 1440)
	COPY_FE2(z+0(FP), 0, 1536)
	COPY_FE2(z+0(FP), 96, 1632)
	XI_NARROW(384, 1728)
	XI_NARROW(480, 1824)
	COPY_FE2(z+0(FP), 288, 1920)
	COPY_FE2(c0+8(FP), 0, 2400)
	COPY_FE2(c1+16(FP), 0, 2496)
	LEAQ 2400(SP), SI
	LEAQ 2496(SP), DI
	ADD_PAIR(2016)

	MUL_BY_01_WIDE(0)
	MB01_B0_RE
	LINE_OUT(1728, 0)
	MB01_B0_IM
	LINE_OUT(1776, 48)
	MB01_B1_RE
	LINE_OUT(1824, 96)
	MB01_B1_IM
	LINE_OUT(1872, 144)
	MB01_B2_RE
	LINE_OUT(1920, 192)
	MB01_B2_IM
	LINE_OUT(1968, 240)

	MUL_BY_01_WIDE(288)
	MB01_B0_RE
	LINE_OUT(1440, 288)
	MB01_B0_IM
	LINE_OUT(1488, 336)
	MB01_B1_RE
	LINE_OUT(1536, 384)
	MB01_B1_IM
	LINE_OUT(1584, 432)
	MB01_B2_RE
	LINE_OUT(1632, 480)
	MB01_B2_IM
	LINE_OUT(1680, 528)
	RET

// fp4SquareAt<>: Granger–Scott's Fp4 squaring of c0 + c1·s for the fe2s
// c0 at SI and c1 at DI into d0 at R8 and d1 at R9: with A = c0², B = c1²
// and C = (c0 + c1)² as pairs of wide products, d0 = A + ξB =
// (A0 + B0 − B1) + (A1 + B0 + B1)·u and d1 = C − A − B, six wide products
// and four reductions. It is NOSPLIT with its pointers in registers, and
// its frame plus mulWideAt<>'s return address stays inside the linker's
// NOSPLIT limit. Frame: A at 0/96, B at 192/288, C at 384/480,
// FE2_SQR_WIDE's scratch at 576, the four pointers at 720; c0 + c1 sits
// in B1's slot until B is formed.
TEXT fp4SquareAt<>(SB), NOSPLIT, $752-0
	MOVQ SI, 720(SP)
	MOVQ DI, 728(SP)
	MOVQ R8, 736(SP)
	MOVQ R9, 744(SP)
	ADD_XY(0)
	SUB_P
	STORE_SP(288)
	MOVQ 720(SP), SI
	MOVQ 728(SP), DI
	ADD_XY(48)
	SUB_P
	STORE_SP(336)
	LEAQ 288(SP), R14
	FE2_SQR_WIDE(384, 480)
	MOVQ 720(SP), R14
	FE2_SQR_WIDE(0, 96)
	MOVQ 728(SP), R14
	FE2_SQR_WIDE(192, 288)

	ACC_LOAD(384)
	ACC_SUB(0)
	ACC_SUB(192)
	ACC_FIX(384)
	ACC_STORE_HI(384)
	REDC_AT(384)
	SUB_P
	MOVQ 744(SP), R8
	STORE_R8(0)

	ACC_LOAD(480)
	ACC_SUB(96)
	ACC_SUB(288)
	ACC_FIX(480)
	ACC_STORE_HI(480)
	REDC_AT(480)
	SUB_P
	MOVQ 744(SP), R8
	STORE_R8(48)

	ACC_LOAD(0)
	ACC_ADD(192)
	ACC_SUB(288)
	ACC_FIX(0)
	ACC_STORE_HI(0)
	REDC_AT(0)
	SUB_P
	MOVQ 736(SP), R8
	STORE_R8(0)

	ACC_LOAD(96)
	ACC_ADD(192)
	ACC_ADD(288)
	ACC_STORE_LO(96)
	ACC_STORE_HI(96)
	REDC_AT(96)
	SUB_P
	MOVQ 736(SP), R8
	STORE_R8(48)
	RET

// func cyclotomicSquareADX(z, x *fe12): Granger–Scott's squaring in the
// cyclotomic subgroup, three Fp4 squarings (fp4SquareAt<>) t0..t5 of
// coordinate pairs of x and then z's coordinates as 3t − 2x (in z.a0)
// and 3t + 2x (in z.a1), with t5 multiplied by ξ first. x is read in
// full before z is written, except that each final step reads the
// coordinate of x it then overwrites, so z = x is safe. Frame: t0..t5 at
// 96k, ξt5 at 576.
TEXT ·cyclotomicSquareADX(SB), $672-16
	MOVQ x+8(FP), SI
	LEAQ 384(SI), DI
	LEAQ 0(SP), R8
	LEAQ 96(SP), R9
	CALL fp4SquareAt<>(SB)
	MOVQ x+8(FP), SI
	LEAQ 192(SI), DI
	LEAQ 288(SI), SI
	LEAQ 192(SP), R8
	LEAQ 288(SP), R9
	CALL fp4SquareAt<>(SB)
	MOVQ x+8(FP), SI
	LEAQ 480(SI), DI
	LEAQ 96(SI), SI
	LEAQ 384(SP), R8
	LEAQ 480(SP), R9
	CALL fp4SquareAt<>(SB)
	LEAQ 480(SP), SI
	LEAQ 528(SP), DI
	SUB_XY(0)
	SUB_P
	STORE_SP(576)
	LEAQ 480(SP), SI
	LEAQ 528(SP), DI
	ADD_XY(0)
	SUB_P
	STORE_SP(624)

	CYC_SUB(0, 0)
	CYC_SUB(48, 48)
	CYC_SUB(192, 96)
	CYC_SUB(240, 144)
	CYC_SUB(384, 192)
	CYC_SUB(432, 240)
	CYC_ADD(576, 288)
	CYC_ADD(624, 336)
	CYC_ADD(96, 384)
	CYC_ADD(144, 432)
	CYC_ADD(288, 480)
	CYC_ADD(336, 528)
	RET

// SQR_DIAG(off, W): the words W and W+8 of a squaring, for x_i at
// off(SI): each the doubled cross-product word (CF) plus a half of x_i²
// (OF). sqrWideAt<>'s closing pass.
#define SQR_DIAG(off, W) \
	MOVQ  off(SI), DX;   \
	MULXQ DX, R8, R9;    \
	MOVQ  W(R14), R10;   \
	ADCXQ R10, R10;      \
	ADOXQ R8, R10;       \
	MOVQ  R10, W(R14);   \
	MOVQ  W+8(R14), R10; \
	ADCXQ R10, R10;      \
	ADOXQ R9, R10;       \
	MOVQ  R10, W+8(R14)

// sqrWideAt<> sets the twelve words at R14 to the 768-bit x² for x at SI:
// the fifteen cross products x_i·x_j (i < j) row by row, each row's low
// words stored as they are final, then one pass that doubles them on CF
// and adds the six squares x_i² on OF — 21 MULXQ where mulWideAt<> needs
// 36. It clobbers AX, CX, DX and R8..R13.
TEXT sqrWideAt<>(SB), NOSPLIT, $0-0
	XORQ  AX, AX
	MOVQ  0(SI), DX
	MULXQ 8(SI), R8, R9
	MULXQ 16(SI), AX, R10
	ADOXQ AX, R9
	MULXQ 24(SI), AX, R11
	ADOXQ AX, R10
	MULXQ 32(SI), AX, R12
	ADOXQ AX, R11
	MULXQ 40(SI), AX, R13
	ADOXQ AX, R12
	MOVQ  $0, AX
	ADOXQ AX, R13
	MOVQ  R8, 8(R14)
	MOVQ  R9, 16(R14)

	XORQ  AX, AX
	MOVQ  8(SI), DX
	MULXQ 16(SI), AX, CX
	ADOXQ AX, R10
	ADCXQ CX, R11
	MULXQ 24(SI), AX, CX
	ADOXQ AX, R11
	ADCXQ CX, R12
	MULXQ 32(SI), AX, CX
	ADOXQ AX, R12
	ADCXQ CX, R13
	MULXQ 40(SI), AX, R8
	ADOXQ AX, R13
	MOVQ  $0, AX
	ADCXQ AX, R8
	ADOXQ AX, R8
	MOVQ  R10, 24(R14)
	MOVQ  R11, 32(R14)

	XORQ  AX, AX
	MOVQ  16(SI), DX
	MULXQ 24(SI), AX, CX
	ADOXQ AX, R12
	ADCXQ CX, R13
	MULXQ 32(SI), AX, CX
	ADOXQ AX, R13
	ADCXQ CX, R8
	MULXQ 40(SI), AX, R9
	ADOXQ AX, R8
	MOVQ  $0, AX
	ADCXQ AX, R9
	ADOXQ AX, R9
	MOVQ  R12, 40(R14)
	MOVQ  R13, 48(R14)

	XORQ  AX, AX
	MOVQ  24(SI), DX
	MULXQ 32(SI), AX, CX
	ADOXQ AX, R8
	ADCXQ CX, R9
	MULXQ 40(SI), AX, R10
	ADOXQ AX, R9
	MOVQ  $0, AX
	ADCXQ AX, R10
	ADOXQ AX, R10
	MOVQ  R8, 56(R14)
	MOVQ  R9, 64(R14)

	MOVQ  32(SI), DX
	MULXQ 40(SI), AX, R11
	ADDQ  AX, R10
	ADCQ  $0, R11
	MOVQ  R10, 72(R14)
	MOVQ  R11, 80(R14)

	XORQ  AX, AX
	MOVQ  0(SI), DX
	MULXQ DX, R8, R9
	MOVQ  R8, 0(R14)
	MOVQ  8(R14), R10
	ADCXQ R10, R10
	ADOXQ R9, R10
	MOVQ  R10, 8(R14)
	SQR_DIAG(8, 16)
	SQR_DIAG(16, 32)
	SQR_DIAG(24, 48)
	SQR_DIAG(32, 64)
	MOVQ  40(SI), DX
	MULXQ DX, R8, R9
	MOVQ  80(R14), R10
	ADCXQ R10, R10
	ADOXQ R8, R10
	MOVQ  R10, 80(R14)
	MOVQ  $0, R10
	ADCXQ R10, R10
	ADOXQ R9, R10
	MOVQ  R10, 88(R14)
	RET

// montMulAt<> sets the fe at R14 to x·y·R⁻¹ mod p, fully reduced, for x
// at SI and y < p at DI: feMulADX's body behind a call, which the G1
// kernels share. x, y and the result may overlap: the operands are read
// in full before the result is stored. It clobbers AX, BX, CX, DX, SI,
// DI and R8..R13.
TEXT montMulAt<>(SB), NOSPLIT, $0-0
	MONT_MUL
	SUB_P
	MOVQ AX, 0(R14)
	MOVQ BX, 8(R14)
	MOVQ CX, 16(R14)
	MOVQ DX, 24(R14)
	MOVQ SI, 32(R14)
	MOVQ DI, 40(R14)
	RET

// montSqrAt<> sets the fe at R14 to x²·R⁻¹ mod p, fully reduced, for x <
// p at SI: sqrWideAt<> into its frame, then redcWideAt<> (x² < p² <
// p·2^384 reduces below 2p) and SUB_P. x and the result may overlap. It
// clobbers AX, BX, CX, DX, SI, DI and R8..R13.
TEXT montSqrAt<>(SB), NOSPLIT, $104-0
	MOVQ R14, 96(SP)
	LEAQ 0(SP), R14
	CALL sqrWideAt<>(SB)
	CALL redcWideAt<>(SB)
	SUB_P
	MOVQ 96(SP), R14
	MOVQ AX, 0(R14)
	MOVQ BX, 8(R14)
	MOVQ CX, 16(R14)
	MOVQ DX, 24(R14)
	MOVQ SI, 32(R14)
	MOVQ DI, 40(R14)
	RET

// The G1 kernels hold their inputs, temporaries and outputs as reduced
// field elements in the frame. G1_MUL(X, Y, D) and G1_SQR(X, D) set D(SP)
// = X(SP)·Y(SP) and X(SP)² through montMulAt<> and montSqrAt<>. Sums and
// differences run on t in R8..R13, reduced: T_LOAD(S) sets t to the fe at
// S(SP), T_ADD(S) and T_SUB(S) add and subtract one mod p, T_DBL doubles
// t, and STORE_T_SP(D) stores it.
#define G1_MUL(X, Y, D) \
	LEAQ X(SP), SI;  \
	LEAQ Y(SP), DI;  \
	LEAQ D(SP), R14; \
	CALL montMulAt<>(SB)

#define G1_SQR(X, D) \
	LEAQ X(SP), SI;  \
	LEAQ D(SP), R14; \
	CALL montSqrAt<>(SB)

#define T_LOAD(S) \
	MOVQ S+0(SP), R8;   \
	MOVQ S+8(SP), R9;   \
	MOVQ S+16(SP), R10; \
	MOVQ S+24(SP), R11; \
	MOVQ S+32(SP), R12; \
	MOVQ S+40(SP), R13

// T_FROM_SUB_P moves SUB_P's result back into t.
#define T_FROM_SUB_P \
	MOVQ AX, R8;  \
	MOVQ BX, R9;  \
	MOVQ CX, R10; \
	MOVQ DX, R11; \
	MOVQ SI, R12; \
	MOVQ DI, R13

// T_ADD(S): t + s < 2p, then SUB_P.
#define T_ADD(S) \
	ADDQ S+0(SP), R8;   \
	ADCQ S+8(SP), R9;   \
	ADCQ S+16(SP), R10; \
	ADCQ S+24(SP), R11; \
	ADCQ S+32(SP), R12; \
	ADCQ S+40(SP), R13; \
	SUB_P;              \
	T_FROM_SUB_P

#define T_DBL \
	ADDQ R8, R8;   \
	ADCQ R9, R9;   \
	ADCQ R10, R10; \
	ADCQ R11, R11; \
	ADCQ R12, R12; \
	ADCQ R13, R13; \
	SUB_P;         \
	T_FROM_SUB_P

// T_SUB(S): t − s, and p added back under the mask of the borrow, as
// feSub does.
#define T_SUB(S) \
	SUBQ S+0(SP), R8;    \
	SBBQ S+8(SP), R9;    \
	SBBQ S+16(SP), R10;  \
	SBBQ S+24(SP), R11;  \
	SBBQ S+32(SP), R12;  \
	SBBQ S+40(SP), R13;  \
	SBBQ AX, AX;         \
	MOVQ p<>+0(SB), BX;  \
	ANDQ AX, BX;         \
	MOVQ p<>+8(SB), CX;  \
	ANDQ AX, CX;         \
	MOVQ p<>+16(SB), DX; \
	ANDQ AX, DX;         \
	MOVQ p<>+24(SB), SI; \
	ANDQ AX, SI;         \
	MOVQ p<>+32(SB), DI; \
	ANDQ AX, DI;         \
	ANDQ p<>+40(SB), AX; \
	ADDQ BX, R8;         \
	ADCQ CX, R9;         \
	ADCQ DX, R10;        \
	ADCQ SI, R11;        \
	ADCQ DI, R12;        \
	ADCQ AX, R13

// G1_OUT(S): r = the point (x, y, z) at S(SP).
#define G1_OUT(S) \
	MOVQ r+0(FP), SI; \
	T_LOAD(S);        \
	STORE_T_SI(0);    \
	T_LOAD(S+48);     \
	STORE_T_SI(48);   \
	T_LOAD(S+96);     \
	STORE_T_SI(96)

// STORE_T_SI(off): t into off(SI).
#define STORE_T_SI(off) \
	MOVQ R8, off+0(SI);   \
	MOVQ R9, off+8(SI);   \
	MOVQ R10, off+16(SI); \
	MOVQ R11, off+24(SI); \
	MOVQ R12, off+32(SI); \
	MOVQ R13, off+40(SI)

// func g1DoubleADX(r, p *G1): dbl-2009-l for a = 0, the formula of
// g1DoubleGeneric:
//
//	A = X², B = Y², C = B², D = 4XB, E = 3A,
//	X3 = E² − 2D, Y3 = E(D − X3) − 8C, Z3 = 2YZ,
//
// with D formed as the product 4XB (3M + 4S) where dbl-2009-l squares,
// 2((X + B)² − A − C): the same value from two sums fewer. Z = 0 gives
// Z3 = 0. p is copied into the frame first and r written last, so r = p
// is safe. Frame: p at 0, then A, B, C, D, E, X3, Y3, Z3 at 144 + 48k.
TEXT ·g1DoubleADX(SB), NOSPLIT, $528-16
	COPY_FE2(p+8(FP), 0, 0)
	COPY_FE(p+8(FP), 96, 96)
	G1_SQR(0, 144)
	G1_SQR(48, 192)
	T_LOAD(144)
	T_DBL
	T_ADD(144)
	STORE_T_SP(336)
	G1_MUL(48, 96, 480)
	G1_SQR(192, 240)
	G1_MUL(0, 192, 288)
	G1_SQR(336, 384)
	T_LOAD(288)
	T_DBL
	T_DBL
	STORE_T_SP(288)
	T_LOAD(384)
	T_SUB(288)
	T_SUB(288)
	STORE_T_SP(384)
	T_LOAD(288)
	T_SUB(384)
	STORE_T_SP(432)
	G1_MUL(432, 336, 432)
	T_LOAD(480)
	T_DBL
	STORE_T_SP(480)
	T_LOAD(240)
	T_DBL
	T_DBL
	T_DBL
	STORE_T_SP(240)
	T_LOAD(432)
	T_SUB(240)
	STORE_T_SP(432)
	G1_OUT(384)
	RET

// func g1AddMixedADX(r, p *G1, qx, qy *fe): madd-2007-bl, 7M + 4S, the
// formula of g1AddMixedGeneric for the affine q = (qx, qy):
//
//	Z1Z1 = Z1², U2 = qx·Z1Z1, S2 = qy·Z1·Z1Z1, H = U2 − X1, HH = H²,
//	I = 4HH, J = H·I, r = 2(S2 − Y1), V = X1·I,
//	X3 = r² − J − 2V, Y3 = r(V − X3) − 2Y1·J, Z3 = (Z1 + H)² − Z1Z1 − HH,
//
// so Z3 = 2Z1·H is 0 when p is at infinity or H = 0 (q = ±p). The inputs
// are copied into the frame first and r written last, so r may alias p.
// Frame: p at 0, qx (then U2, H) at 144, qy (then S2, r) at 192, Z1Z1,
// HH, I (then 2Y1·J), J, V, X3, Y3, Z3 at 240 + 48k.
TEXT ·g1AddMixedADX(SB), NOSPLIT, $624-32
	COPY_FE2(p+8(FP), 0, 0)
	COPY_FE(p+8(FP), 96, 96)
	COPY_FE(qx+16(FP), 0, 144)
	COPY_FE(qy+24(FP), 0, 192)
	G1_SQR(96, 240)
	G1_MUL(192, 96, 192)
	G1_MUL(144, 240, 144)
	G1_MUL(192, 240, 192)
	T_LOAD(144)
	T_SUB(0)
	STORE_T_SP(144)
	T_LOAD(192)
	T_SUB(48)
	T_DBL
	STORE_T_SP(192)
	T_LOAD(96)
	T_ADD(144)
	STORE_T_SP(576)
	G1_SQR(144, 288)
	G1_SQR(192, 480)
	G1_SQR(576, 576)
	T_LOAD(288)
	T_DBL
	T_DBL
	STORE_T_SP(336)
	G1_MUL(144, 336, 384)
	G1_MUL(0, 336, 432)
	T_LOAD(480)
	T_SUB(384)
	T_SUB(432)
	T_SUB(432)
	STORE_T_SP(480)
	G1_MUL(48, 384, 336)
	T_LOAD(432)
	T_SUB(480)
	STORE_T_SP(528)
	G1_MUL(528, 192, 528)
	T_LOAD(336)
	T_DBL
	STORE_T_SP(336)
	T_LOAD(528)
	T_SUB(336)
	STORE_T_SP(528)
	T_LOAD(576)
	T_SUB(240)
	T_SUB(288)
	STORE_T_SP(576)
	G1_OUT(480)
	RET

// func g1AddADX(r, p, q *G1): add-2007-bl, 11M + 5S, the formula of
// g1AddGeneric:
//
//	Z1Z1 = Z1², Z2Z2 = Z2², U1 = X1·Z2Z2, U2 = X2·Z1Z1,
//	S1 = Y1·Z2·Z2Z2, S2 = Y2·Z1·Z1Z1, H = U2 − U1, I = (2H)², J = H·I,
//	r = 2(S2 − S1), V = U1·I, X3 = r² − J − 2V, Y3 = r(V − X3) − 2S1·J,
//	Z3 = ((Z1 + Z2)² − Z1Z1 − Z2Z2)·H,
//
// so Z3 = 2Z1·Z2·H is 0 when either input is at infinity or H = 0
// (q = ±p). The inputs are copied into the frame first and r written
// last, so r may alias p or q. Frame: p at 0, q at 144, then Z1Z1, Z2Z2,
// U1, U2 (then H), S1, S2 (then r), I (then 2S1·J), J, V, X3, Y3, Z3 at
// 288 + 48k.
TEXT ·g1AddADX(SB), $864-24
	COPY_FE2(p+8(FP), 0, 0)
	COPY_FE(p+8(FP), 96, 96)
	COPY_FE2(q+16(FP), 0, 144)
	COPY_FE(q+16(FP), 96, 240)
	G1_SQR(96, 288)
	G1_SQR(240, 336)
	G1_MUL(48, 240, 480)
	G1_MUL(192, 96, 528)
	G1_MUL(0, 336, 384)
	G1_MUL(144, 288, 432)
	G1_MUL(480, 336, 480)
	G1_MUL(528, 288, 528)
	T_LOAD(96)
	T_ADD(240)
	STORE_T_SP(816)
	T_LOAD(432)
	T_SUB(384)
	STORE_T_SP(432)
	T_DBL
	STORE_T_SP(576)
	T_LOAD(528)
	T_SUB(480)
	T_DBL
	STORE_T_SP(528)
	G1_SQR(576, 576)
	G1_SQR(528, 720)
	G1_SQR(816, 816)
	G1_MUL(432, 576, 624)
	G1_MUL(384, 576, 672)
	T_LOAD(816)
	T_SUB(288)
	T_SUB(336)
	STORE_T_SP(816)
	G1_MUL(480, 624, 576)
	T_LOAD(720)
	T_SUB(624)
	T_SUB(672)
	T_SUB(672)
	STORE_T_SP(720)
	G1_MUL(816, 432, 816)
	T_LOAD(672)
	T_SUB(720)
	STORE_T_SP(768)
	G1_MUL(768, 528, 768)
	T_LOAD(576)
	T_DBL
	STORE_T_SP(576)
	T_LOAD(768)
	T_SUB(576)
	STORE_T_SP(768)
	G1_OUT(720)
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
