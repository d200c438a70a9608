//go:build !race

#include "textflag.h"

// SSE2 bodies of the distance kernels (SSE2 is part of the amd64 baseline).
// Race-detector builds use the Go loops of dist_generic.go instead.
//
// The float kernels keep the bits of the four-stripe Go loops in
// dist_generic.go: lane j of the accumulator X0 is stripe j, the elements
// i ≡ j (mod 4). Packed SUBPS/MULPS/ADDPS round every lane exactly as the
// scalar SUBSS/MULSS/ADDSS of those loops, the tail joins lane 0 with
// scalar ops, and the stripes reduce as ((s0+s1)+s2)+s3.
//
// The byte kernels sum exact int32 squares, so their order is free: they
// take 16 bytes at a time and are exact below any bound.
//
// Register use: SI = a, DI = b, CX = len(a).

// F32SUM4 puts ((s0+s1)+s2)+s3 of the lanes of X0 into the low lane of X3.
#define F32SUM4 \
	MOVAPS X0, X3; \
	PSHUFD $0x55, X0, X4; \
	ADDSS X4, X3; \
	PSHUFD $0xAA, X0, X4; \
	ADDSS X4, X3; \
	PSHUFD $0xFF, X0, X4; \
	ADDSS X4, X3

// L2STEP4 adds (a[i+j]-b[i+j])² to lane j of X0, j = 0..3, and advances.
#define L2STEP4 \
	MOVUPS (SI), X1; \
	MOVUPS (DI), X2; \
	SUBPS X2, X1; \
	MULPS X1, X1; \
	ADDPS X1, X0; \
	ADDQ $16, SI; \
	ADDQ $16, DI

// L2STEP1 adds (a[i]-b[i])² to lane 0 of X0 and advances.
#define L2STEP1 \
	MOVSS (SI), X1; \
	SUBSS (DI), X1; \
	MULSS X1, X1; \
	ADDSS X1, X0; \
	ADDQ $4, SI; \
	ADDQ $4, DI

// func dot(a, b []float32) float32
TEXT ·dot(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORPS X0, X0
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

group:
	MOVUPS (SI), X1
	MOVUPS (DI), X2
	MULPS X2, X1
	ADDPS X1, X0
	ADDQ $16, SI
	ADDQ $16, DI
	DECQ BX
	JNZ group

tail:
	ANDQ $3, CX
	JZ done

elem:
	MOVSS (SI), X1
	MULSS (DI), X1
	ADDSS X1, X0
	ADDQ $4, SI
	ADDQ $4, DI
	DECQ CX
	JNZ elem

done:
	F32SUM4
	MOVSS X3, ret+48(FP)
	RET

// func l2Sqr(a, b []float32) float32
TEXT ·l2Sqr(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORPS X0, X0
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

group:
	L2STEP4
	DECQ BX
	JNZ group

tail:
	ANDQ $3, CX
	JZ done

elem:
	L2STEP1
	DECQ CX
	JNZ elem

done:
	F32SUM4
	MOVSS X3, ret+48(FP)
	RET

// func l2SqrBound(a, b []float32, bound float32) float32
//
// The 4-wide region is summed in blocks of min(32, what is left) elements
// (abandonBlock); after each block the reduced sum is compared with bound,
// so the checks and any partial sum returned are those of the Go loop.
TEXT ·l2SqrBound(SB), NOSPLIT, $0-60
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVSS bound+48(FP), X5
	XORPS X0, X0
	MOVQ CX, BX
	ANDQ $~3, BX // elements of the 4-wide region not yet summed

block:
	TESTQ BX, BX
	JZ tail
	MOVQ $32, DX
	CMPQ BX, DX
	CMOVQLT BX, DX
	SUBQ DX, BX
	SHRQ $2, DX

group:
	L2STEP4
	DECQ DX
	JNZ group
	F32SUM4
	UCOMISS X5, X3
	JCS block      // sum < bound, or unordered: go on
	MOVSS X3, ret+56(FP)
	RET

tail:
	ANDQ $3, CX
	JZ done

elem:
	L2STEP1
	DECQ CX
	JNZ elem

done:
	F32SUM4
	MOVSS X3, ret+56(FP)
	RET

// func dotMixed(a []float64, b []float32) float64
//
// Stripes (s0, s1) live in X0 and (s2, s3) in X1 as float64 pairs; each
// float32 widens exactly, so MULPD/ADDPD round like the Go loop's scalar
// MULSD/ADDSD.
TEXT ·dotMixed(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	XORPD X0, X0
	XORPD X1, X1
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

group:
	CVTPS2PD (DI), X2
	CVTPS2PD 8(DI), X3
	MOVUPD (SI), X4
	MOVUPD 16(SI), X5
	MULPD X2, X4
	MULPD X3, X5
	ADDPD X4, X0
	ADDPD X5, X1
	ADDQ $32, SI
	ADDQ $16, DI
	DECQ BX
	JNZ group

tail:
	ANDQ $3, CX
	JZ done

elem:
	CVTSS2SD (DI), X2
	MOVSD (SI), X4
	MULSD X2, X4
	ADDSD X4, X0
	ADDQ $8, SI
	ADDQ $4, DI
	DECQ CX
	JNZ elem

done:
	PSHUFD $0xEE, X0, X2
	ADDSD X2, X0         // s0 + s1
	ADDSD X1, X0         // + s2
	PSHUFD $0xEE, X1, X2
	ADDSD X2, X0         // + s3
	MOVSD X0, ret+48(FP)
	RET

// func l2Sqr2(x, a, b []float32) (float32, float32)
//
// l2Sqr(x, a) in X0 and l2Sqr(x, b) in X5, lane for lane as l2Sqr, with
// each element of x loaded once.
TEXT ·l2Sqr2(SB), NOSPLIT, $0-80
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	MOVQ a_base+24(FP), DI
	MOVQ b_base+48(FP), DX
	XORPS X0, X0
	XORPS X5, X5
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

group:
	MOVUPS (SI), X1
	MOVUPS (DI), X2
	MOVUPS (DX), X6
	MOVAPS X1, X7
	SUBPS X2, X1
	SUBPS X6, X7
	MULPS X1, X1
	MULPS X7, X7
	ADDPS X1, X0
	ADDPS X7, X5
	ADDQ $16, SI
	ADDQ $16, DI
	ADDQ $16, DX
	DECQ BX
	JNZ group

tail:
	ANDQ $3, CX
	JZ done

elem:
	MOVSS (SI), X1
	MOVAPS X1, X7
	SUBSS (DI), X1
	SUBSS (DX), X7
	MULSS X1, X1
	MULSS X7, X7
	ADDSS X1, X0
	ADDSS X7, X5
	ADDQ $4, SI
	ADDQ $4, DI
	ADDQ $4, DX
	DECQ CX
	JNZ elem

done:
	F32SUM4
	MOVSS X3, ret+72(FP)
	MOVAPS X5, X0
	F32SUM4
	MOVSS X3, ret1+76(FP)
	RET

// MIXSTEP adds the products of four elements of composite c (index AX) with
// the widened sample elements in X8 (lanes 0, 1) and X9 (lanes 2, 3) to the
// stripe pairs lo = (s0, s1) and hi = (s2, s3), as dotMixed's group does.
#define MIXSTEP(c, lo, hi) \
	MOVUPD (c)(AX*8), X10; \
	MOVUPD 16(c)(AX*8), X11; \
	MULPD X8, X10; \
	MULPD X9, X11; \
	ADDPD X10, lo; \
	ADDPD X11, hi

// MIXTAIL adds composite c's element AX times the widened element in X8 to
// stripe 0, the low lane of lo.
#define MIXTAIL(c, lo) \
	MOVSD (c)(AX*8), X10; \
	MULSD X8, X10; \
	ADDSD X10, lo

// MIXSUM stores ((s0+s1)+s2)+s3 of the pairs lo, hi at off(DX).
#define MIXSUM(lo, hi, off) \
	PSHUFD $0xEE, lo, X10; \
	ADDSD X10, lo; \
	ADDSD hi, lo; \
	PSHUFD $0xEE, hi, X10; \
	ADDSD X10, lo; \
	MOVSD lo, off(DX)

// func dotMixedN(cs [][]float64, x []float32, out []float64)
//
// dotMixed against four composites at a time, then one at a time: each
// composite keeps its own two stripe pairs (X0–X7 for a group of four), so
// every output has dotMixed's bits while x is widened once per group.
// R12 walks the slice headers of cs (24 bytes each), R13 counts the
// composites left, DX walks out, BX = len(x)/4 groups, AX indexes x.
TEXT ·dotMixedN(SB), NOSPLIT, $0-72
	MOVQ cs_base+0(FP), R12
	MOVQ cs_len+8(FP), R13
	MOVQ x_base+24(FP), DI
	MOVQ x_len+32(FP), CX
	MOVQ out_base+48(FP), DX
	MOVQ CX, BX
	SHRQ $2, BX

quad:
	CMPQ R13, $4
	JLT single
	MOVQ 0(R12), R8
	MOVQ 24(R12), R9
	MOVQ 48(R12), R10
	MOVQ 72(R12), R11
	XORPD X0, X0
	XORPD X1, X1
	XORPD X2, X2
	XORPD X3, X3
	XORPD X4, X4
	XORPD X5, X5
	XORPD X6, X6
	XORPD X7, X7
	XORQ AX, AX
	MOVQ BX, SI
	TESTQ SI, SI
	JZ quadtail

quadgroup:
	CVTPS2PD (DI)(AX*4), X8
	CVTPS2PD 8(DI)(AX*4), X9
	MIXSTEP(R8, X0, X1)
	MIXSTEP(R9, X2, X3)
	MIXSTEP(R10, X4, X5)
	MIXSTEP(R11, X6, X7)
	ADDQ $4, AX
	DECQ SI
	JNZ quadgroup

quadtail:
	CMPQ AX, CX
	JGE quadsum
	CVTSS2SD (DI)(AX*4), X8
	MIXTAIL(R8, X0)
	MIXTAIL(R9, X2)
	MIXTAIL(R10, X4)
	MIXTAIL(R11, X6)
	INCQ AX
	JMP quadtail

quadsum:
	MIXSUM(X0, X1, 0)
	MIXSUM(X2, X3, 8)
	MIXSUM(X4, X5, 16)
	MIXSUM(X6, X7, 24)
	ADDQ $32, DX
	ADDQ $96, R12
	SUBQ $4, R13
	JMP quad

single:
	TESTQ R13, R13
	JZ done
	MOVQ 0(R12), R8
	XORPD X0, X0
	XORPD X1, X1
	XORQ AX, AX
	MOVQ BX, SI
	TESTQ SI, SI
	JZ singletail

singlegroup:
	CVTPS2PD (DI)(AX*4), X8
	CVTPS2PD 8(DI)(AX*4), X9
	MIXSTEP(R8, X0, X1)
	ADDQ $4, AX
	DECQ SI
	JNZ singlegroup

singletail:
	CMPQ AX, CX
	JGE singlesum
	CVTSS2SD (DI)(AX*4), X8
	MIXTAIL(R8, X0)
	INCQ AX
	JMP singletail

singlesum:
	MIXSUM(X0, X1, 0)
	ADDQ $8, DX
	ADDQ $24, R12
	DECQ R13
	JMP single

done:
	RET

// func addWidened(dst []float64, x []float32)
TEXT ·addWidened(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ x_base+24(FP), SI
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

group:
	CVTPS2PD (SI), X0
	CVTPS2PD 8(SI), X1
	MOVUPD (DI), X2
	MOVUPD 16(DI), X3
	ADDPD X0, X2
	ADDPD X1, X3
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	ADDQ $16, SI
	ADDQ $32, DI
	DECQ BX
	JNZ group

tail:
	ANDQ $3, CX
	JZ done

elem:
	CVTSS2SD (SI), X0
	MOVSD (DI), X2
	ADDSD X0, X2
	MOVSD X2, (DI)
	ADDQ $4, SI
	ADDQ $8, DI
	DECQ CX
	JNZ elem

done:
	RET

// func moveComposite(cu, cv []float64, x []float32)
TEXT ·moveComposite(SB), NOSPLIT, $0-72
	MOVQ cu_base+0(FP), DI
	MOVQ cv_base+24(FP), DX
	MOVQ x_base+48(FP), SI
	MOVQ x_len+56(FP), CX
	MOVQ CX, BX
	SHRQ $2, BX
	JZ tail

group:
	CVTPS2PD (SI), X0
	CVTPS2PD 8(SI), X1
	MOVUPD (DI), X2
	MOVUPD 16(DI), X3
	SUBPD X0, X2
	SUBPD X1, X3
	MOVUPD X2, (DI)
	MOVUPD X3, 16(DI)
	MOVUPD (DX), X4
	MOVUPD 16(DX), X5
	ADDPD X0, X4
	ADDPD X1, X5
	MOVUPD X4, (DX)
	MOVUPD X5, 16(DX)
	ADDQ $16, SI
	ADDQ $32, DI
	ADDQ $32, DX
	DECQ BX
	JNZ group

tail:
	ANDQ $3, CX
	JZ done

elem:
	CVTSS2SD (SI), X0
	MOVSD (DI), X2
	SUBSD X0, X2
	MOVSD X2, (DI)
	MOVSD (DX), X4
	ADDSD X0, X4
	MOVSD X4, (DX)
	ADDQ $4, SI
	ADDQ $8, DI
	ADDQ $8, DX
	DECQ CX
	JNZ elem

done:
	RET

// U8STEP16 adds the squared differences of the 16 byte pairs at (SI) and
// (DI) to the int32 lanes of X0 and advances; X7 must be zero. |a−b| is
// (a ⊖ b) | (b ⊖ a) with saturating subtraction; PUNPCKLBW/PUNPCKHBW widen
// it to words and PMADDWL sums adjacent squares into int32 lanes.
#define U8STEP16 \
	MOVOU (SI), X1; \
	MOVOU (DI), X2; \
	MOVO X1, X3; \
	PSUBUSB X2, X1; \
	PSUBUSB X3, X2; \
	POR X2, X1; \
	MOVO X1, X2; \
	PUNPCKLBW X7, X1; \
	PUNPCKHBW X7, X2; \
	PMADDWL X1, X1; \
	PMADDWL X2, X2; \
	PADDL X1, X0; \
	PADDL X2, X0; \
	ADDQ $16, SI; \
	ADDQ $16, DI

// U8STEP8 is U8STEP16 for 8 byte pairs.
#define U8STEP8 \
	MOVQ (SI), X1; \
	MOVQ (DI), X2; \
	MOVO X1, X3; \
	PSUBUSB X2, X1; \
	PSUBUSB X3, X2; \
	POR X2, X1; \
	PUNPCKLBW X7, X1; \
	PMADDWL X1, X1; \
	PADDL X1, X0; \
	ADDQ $8, SI; \
	ADDQ $8, DI

// U8STEP1 adds the squared difference of one byte pair to R8 and advances.
#define U8STEP1 \
	MOVBLZX (SI), AX; \
	MOVBLZX (DI), DX; \
	SUBL DX, AX; \
	IMULL AX, AX; \
	ADDL AX, R8; \
	INCQ SI; \
	INCQ DI

// U8SUM puts the sum of the int32 lanes of X0 into AX.
#define U8SUM \
	PSHUFD $0xEE, X0, X1; \
	PADDL X0, X1; \
	PSHUFD $0x55, X1, X2; \
	PADDL X2, X1; \
	MOVL X1, AX

// func l2SqrU8(a, b []uint8) int32
TEXT ·l2SqrU8(SB), NOSPLIT, $0-52
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	PXOR X0, X0
	PXOR X7, X7
	XORL R8, R8
	MOVQ CX, BX
	SHRQ $4, BX
	JZ tail8

loop16:
	U8STEP16
	DECQ BX
	JNZ loop16

tail8:
	TESTQ $8, CX
	JZ tail1
	U8STEP8

tail1:
	ANDQ $7, CX
	JZ done

elem:
	U8STEP1
	DECQ CX
	JNZ elem

done:
	U8SUM
	ADDL R8, AX
	MOVL AX, ret+48(FP)
	RET

// func l2SqrBoundU8(a, b []uint8, bound int32) int32
//
// Checks the bound after every 32 bytes. The sum is exact, so the result
// is L2SqrU8's below the bound and a partial sum ≥ bound above it.
TEXT ·l2SqrBoundU8(SB), NOSPLIT, $0-60
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	MOVL bound+48(FP), R9
	PXOR X0, X0
	PXOR X7, X7
	XORL R8, R8
	MOVQ CX, BX
	SHRQ $5, BX
	JZ tail16

block:
	U8STEP16
	U8STEP16
	U8SUM
	CMPL AX, R9
	JGE abandon
	DECQ BX
	JNZ block

tail16:
	TESTQ $16, CX
	JZ tail8
	U8STEP16

tail8:
	TESTQ $8, CX
	JZ tail1
	U8STEP8

tail1:
	ANDQ $7, CX
	JZ done

elem:
	U8STEP1
	DECQ CX
	JNZ elem

done:
	U8SUM
	ADDL R8, AX
	MOVL AX, ret+56(FP)
	RET

abandon:
	MOVL AX, ret+56(FP)
	RET
