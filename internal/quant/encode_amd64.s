//go:build amd64

#include "textflag.h"

// Constants read as 256-bit memory operands, one value per 64-bit lane.
#define QUAD(name, v) \
	DATA name<>+0(SB)/8, $v;  \
	DATA name<>+8(SB)/8, $v;  \
	DATA name<>+16(SB)/8, $v; \
	DATA name<>+24(SB)/8, $v; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

QUAD(mix1, 0xbf58476d1ce4e5b9)      // splitmix64's multipliers
QUAD(mix1hi, 0x00000000bf58476d)    // and their high halves
QUAD(mix2, 0x94d049bb133111eb)
QUAD(mix2hi, 0x0000000094d049bb)
QUAD(exp31, 0x41e0000000000000)     // 2³¹
QUAD(exp31half, 0x41e0000000100000) // 2³¹ + 0.5
QUAD(half, 0x3fe0000000000000)      // 0.5
QUAD(halfBelow, 0x3fdfffffffffffff) // the largest double below 0.5
QUAD(one, 0x3ff0000000000000)       // 1.0

// lanePhi is lane l's counter offset, l·phi mod 2⁶⁴, for lanes 0..7.
DATA lanePhi<>+0(SB)/8, $0
DATA lanePhi<>+8(SB)/8, $0x9e3779b97f4a7c15
DATA lanePhi<>+16(SB)/8, $0x3c6ef372fe94f82a
DATA lanePhi<>+24(SB)/8, $0xdaa66d2c7ddf743f
DATA lanePhi<>+32(SB)/8, $0x78dde6e5fd29f054
DATA lanePhi<>+40(SB)/8, $0x1715609f7c746c69
DATA lanePhi<>+48(SB)/8, $0xb54cda58fbbee87e
DATA lanePhi<>+56(SB)/8, $0x538454127b096493
GLOBL lanePhi<>(SB), RODATA|NOPTR, $64

DATA posInf<>+0(SB)/4, $0x7f800000
GLOBL posInf<>(SB), RODATA|NOPTR, $4
DATA negInf<>+0(SB)/4, $0xff800000
GLOBL negInf<>(SB), RODATA|NOPTR, $4

// MUL64 sets z = z·c mod 2⁶⁴ in each 64-bit lane from three 32×32→64
// products: lo(z)·lo(c) + (hi(z)·lo(c) + lo(z)·hi(c))<<32. chi holds
// hi(c) in each lane's low half.
#define MUL64(c, chi, z, t1, t2) \
	VPSRLQ   $32, z, t1;  \
	VPMULUDQ c, t1, t1;   \
	VPMULUDQ chi, z, t2;  \
	VPADDQ   t2, t1, t1;  \
	VPSLLQ   $32, t1, t1; \
	VPMULUDQ c, z, z;     \
	VPADDQ   t1, z, z

// QUOTIENT sets Y0 = f = q − ⌊q⌋ and Y1 = ⌊q⌋ for four lanes, from x−min
// (float32, in X3) and the lanes' float64 scales:
//
//	q = float64(x − min) / float64(scale)   VCVTPS2PD, VDIVPD
//	if q < 0 { q = 0 }                      VMAXPD with 0 first
//	if q > maxCode { q = maxCode }          VMINPD with maxCode first
//	c = ⌊q⌋, f = q − c                      VROUNDPD, VSUBPD (exact)
//
// VMAXPD's definition is the compare and blend src1 > src2 ? src1 :
// src2, so with 0 as src1 it is the first if: a NaN or −0 quotient fails
// the compare and passes through unchanged, as it passes the scalar code.
// VMINPD with maxCode as src1 is the second if the same way.
#define QUOTIENT(scale) \
	VCVTPS2PD X3, Y0;        \
	VDIVPD    scale, Y0, Y0; \
	VMAXPD    Y0, Y11, Y0;   \
	VMINPD    Y0, Y12, Y0;   \
	VROUNDPD  $1, Y0, Y1;    \
	VSUBPD    Y1, Y0, Y0

// UNIFORM sets Y2 = u = (splitmix64(ctr) >> 11)·2⁻⁵³ for four lanes. The
// 53-bit integer becomes a float64 exactly through the exponent fields
// of 2³¹ and 2⁻¹: its high 21 bits under the first make 2³¹ + hi·2⁻²¹,
// its low 32 under the second make 0.5 + lo·2⁻⁵³, and
// (2³¹ + hi·2⁻²¹ − (2³¹ + 0.5)) + (0.5 + lo·2⁻⁵³) is exact at each step.
#define UNIFORM(ctr) \
	VPSRLQ   $30, ctr, Y2;                              \
	VPXOR    ctr, Y2, Y2;                               \
	MUL64(mix1<>(SB), mix1hi<>(SB), Y2, Y4, Y6);       \
	VPSRLQ   $27, Y2, Y4;                               \
	VPXOR    Y4, Y2, Y2;                                \
	MUL64(mix2<>(SB), mix2hi<>(SB), Y2, Y4, Y6);       \
	VPSRLQ   $31, Y2, Y4;                               \
	VPXOR    Y4, Y2, Y2;                                \
	VPSRLQ   $11, Y2, Y2;                               \
	VPSRLQ   $32, Y2, Y4;                               \
	VPOR     exp31<>(SB), Y4, Y4;                       \
	VSUBPD   exp31half<>(SB), Y4, Y4;                   \
	VPBLENDD $0xaa, half<>(SB), Y2, Y2;                 \
	VADDPD   Y4, Y2, Y2

// ROUNDUP adds 1 to ⌊q⌋ (Y1) where the mask in Y2 is set and truncates
// the four codes to int32 in out. A NaN code becomes 0x80000000, which
// the unsigned-saturating packs turn into 0 — the low byte the scalar
// uint8 conversion keeps.
#define ROUNDUP(out) \
	VANDPD      one<>(SB), Y2, Y2; \
	VADDPD      Y2, Y1, Y1;        \
	VCVTTPD2DQY Y1, out

// func minMaxColsAVX2(mins, maxs, x *float32, nb, bl, vl int)
//
// Sweeps the first vl elements (a positive multiple of 8) of each of nb
// partitions laid end to end bl elements apart from x, writing partition
// b's min and max to mins[b] and maxs[b]. Lane l sweeps elements l, l+8,
// … with the scalar update: VMINPS's x < min ? x : min is exactly
// `if x < min { min = x }` (NaN and equal values keep min), and VMAXPS
// likewise. The lanes then reduce to the numeric min and max. Their
// order decides only the sign of a zero result, so a zero min or max is
// replaced by the partition's first zero element — the one the scalar
// loop keeps.
TEXT ·minMaxColsAVX2(SB), NOSPLIT, $0-48
	MOVQ         mins+0(FP), DI
	MOVQ         maxs+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         nb+24(FP), BX
	MOVQ         bl+32(FP), R9
	SHLQ         $2, R9 // partition stride in bytes
	MOVQ         vl+40(FP), R10
	VBROADCASTSS posInf<>(SB), Y8
	VBROADCASTSS negInf<>(SB), Y9
	VXORPS       Y4, Y4, Y4

partition:
	VMOVAPS Y8, Y0
	VMOVAPS Y9, Y1
	MOVQ    SI, DX
	MOVQ    R10, CX

sweep:
	VMOVUPS (DX), Y2
	VMINPS  Y0, Y2, Y0
	VMAXPS  Y1, Y2, Y1
	ADDQ    $32, DX
	SUBQ    $8, CX
	JNZ     sweep

	// Reduce; every lane ends up holding the result.
	VEXTRACTF128 $1, Y0, X2
	VMINPS       X2, X0, X0
	VPERMILPS    $0x4e, X0, X2
	VMINPS       X2, X0, X0
	VPERMILPS    $0xb1, X0, X2
	VMINPS       X2, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0x4e, X1, X3
	VMAXPS       X3, X1, X1
	VPERMILPS    $0xb1, X1, X3
	VMAXPS       X3, X1, X1

	VCMPPS    $0x00, X4, X0, X5 // min == 0
	VCMPPS    $0x00, X4, X1, X6 // max == 0
	VORPS     X6, X5, X7
	VMOVMSKPS X7, AX
	TESTL     AX, AX
	JZ        store
	MOVQ      SI, DX

firstZero:
	VCMPPS    $0x00, (DX), Y4, Y7 // x == 0, either sign
	VMOVMSKPS Y7, AX
	ADDQ      $32, DX
	TESTL     AX, AX
	JZ        firstZero
	BSFL      AX, AX
	VMOVSS    -32(DX)(AX*4), X7
	VBLENDVPS X5, X7, X0, X0
	VBLENDVPS X6, X7, X1, X1

store:
	VMOVSS X0, (DI)
	VMOVSS X1, (R8)
	ADDQ   $4, DI
	ADDQ   $4, R8
	ADDQ   R9, SI
	DECQ   BX
	JNZ    partition
	VZEROUPPER
	RET

// func minMaxRowsAVX2(mins, maxs, x *float32, n, groups, stride int)
//
// Per group of eight columns, lane c runs the scalar sweep down column
// c — the same elements in the same order, so no reduction is needed.
TEXT ·minMaxRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ         mins+0(FP), DI
	MOVQ         maxs+8(FP), R8
	MOVQ         x+16(FP), SI
	MOVQ         n+24(FP), BX
	MOVQ         groups+32(FP), DX
	MOVQ         stride+40(FP), R9
	SHLQ         $2, R9 // row stride in bytes
	VBROADCASTSS posInf<>(SB), Y3
	VBROADCASTSS negInf<>(SB), Y4

group:
	VMOVAPS Y3, Y0
	VMOVAPS Y4, Y1
	MOVQ    SI, R10
	MOVQ    BX, CX

row:
	VMOVUPS (R10), Y2
	VMINPS  Y0, Y2, Y0
	VMAXPS  Y1, Y2, Y1
	ADDQ    R9, R10
	DECQ    CX
	JNZ     row

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, (R8)
	ADDQ    $32, SI
	ADDQ    $32, DI
	ADDQ    $32, R8
	DECQ    DX
	JNZ     group
	VZEROUPPER
	RET

// ENCODE runs rounder.code on eight lanes, as two halves of four float64
// lanes, for CX steps. At each step the lanes read eight float32 at SI,
// write eight codes at DI and add them to their int32 sums in Y7; then
// SI advances R8 bytes, DI R9 bytes and the lane counters (Y10, Y9)
// Y8. Y15 holds the lane mins, Y14 and Y13 the lanes' float64 scales,
// Y12 maxCode, Y11 zero, and R11 is non-zero for stochastic rounding.
// The scalar code skips the hash when f is 0, which cannot change a code,
// so the lanes always hash; u < f is an ordered compare, false for a NaN
// f. Nearest rounding is math.Round on q ≥ 0: ⌊q⌋+1 exactly when f is
// above the largest double below 0.5. The scales must be positive or NaN
// (a NaN scale reaches code 0 through a NaN quotient).
#define ENCODE \
	TESTQ        R11, R11;                          \
	JZ           nearest;                           \
stochastic:                                         \
	VMOVUPS      (SI), Y3;                          \
	VSUBPS       Y15, Y3, Y3;                       \
	QUOTIENT(Y14);                                  \
	UNIFORM(Y10);                                   \
	VCMPPD       $0x11, Y0, Y2, Y2;                 \
	ROUNDUP(X5);                                    \
	VEXTRACTF128 $1, Y3, X3;                        \
	QUOTIENT(Y13);                                  \
	UNIFORM(Y9);                                    \
	VCMPPD       $0x11, Y0, Y2, Y2;                 \
	ROUNDUP(X6);                                    \
	VPACKUSDW    X6, X5, X5;                        \
	VPACKUSWB    X5, X5, X5;                        \
	VMOVQ        X5, (DI);                          \
	VPMOVZXBD    X5, Y4;                            \
	VPADDD       Y4, Y7, Y7;                        \
	VPADDQ       Y8, Y10, Y10;                      \
	VPADDQ       Y8, Y9, Y9;                        \
	ADDQ         R8, SI;                            \
	ADDQ         R9, DI;                            \
	DECQ         CX;                                \
	JNZ          stochastic;                        \
	JMP          encoded;                           \
nearest:                                            \
	VMOVUPS      (SI), Y3;                          \
	VSUBPS       Y15, Y3, Y3;                       \
	QUOTIENT(Y14);                                  \
	VCMPPD       $0x1e, halfBelow<>(SB), Y0, Y2;    \
	ROUNDUP(X5);                                    \
	VEXTRACTF128 $1, Y3, X3;                        \
	QUOTIENT(Y13);                                  \
	VCMPPD       $0x1e, halfBelow<>(SB), Y0, Y2;    \
	ROUNDUP(X6);                                    \
	VPACKUSDW    X6, X5, X5;                        \
	VPACKUSWB    X5, X5, X5;                        \
	VMOVQ        X5, (DI);                          \
	VPMOVZXBD    X5, Y4;                            \
	VPADDD       Y4, Y7, Y7;                        \
	ADDQ         R8, SI;                            \
	ADDQ         R9, DI;                            \
	DECQ         CX;                                \
	JNZ          nearest;                           \
encoded:

// func encodeColsAVX2(codes *uint8, x, mins, scales *float32, hs *uint64, sums *int32, nb, bl, vl int, maxCode float64, stochastic bool)
//
// Encodes the first vl elements (a positive multiple of 8) of each of nb
// partitions laid end to end bl elements apart from x into codes at the
// same offsets: partition b under (mins[b], scales[b]), element j
// rounding with counter hs[b] + j·phi, its code sum added to sums[b]. A
// partition whose scale is not positive gets zero codes, as the scalar
// code gives it.
TEXT ·encodeColsAVX2(SB), NOSPLIT, $0-81
	MOVQ         codes+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         mins+16(FP), AX
	MOVQ         scales+24(FP), BX
	MOVQ         hs+32(FP), DX
	MOVQ         sums+40(FP), R10
	MOVQ         nb+48(FP), R12
	MOVQ         bl+56(FP), R14
	SUBQ         vl+64(FP), R14 // codes left to the next partition
	LEAQ         (R14*4), R13   // and their bytes of x
	MOVQ         $32, R8
	MOVQ         $8, R9
	MOVBQZX      stochastic+80(FP), R11
	VBROADCASTSD maxCode+72(FP), Y12
	VXORPD       Y11, Y11, Y11
	MOVQ         $0xf1bbcdcbfa53e0a8, CX // 8·phi: the next eight elements
	VMOVQ        CX, X8
	VPBROADCASTQ X8, Y8

partition:
	MOVQ     vl+64(FP), CX
	SHRQ     $3, CX
	VMOVSS   (BX), X0
	VUCOMISS X11, X0
	JA       positive // scale > 0, ordered
	VPXOR    X0, X0, X0

zeros:
	VMOVQ X0, (DI)
	ADDQ  $32, SI
	ADDQ  $8, DI
	DECQ  CX
	JNZ   zeros
	JMP   next

positive:
	VBROADCASTSS (AX), Y15
	VBROADCASTSS (BX), X14
	VCVTPS2PD    X14, Y14 // exact
	VMOVAPD      Y14, Y13
	VPBROADCASTQ (DX), Y10
	VPADDQ       lanePhi<>+32(SB), Y10, Y9 // lane counters 4..7
	VPADDQ       lanePhi<>(SB), Y10, Y10   // lane counters 0..3
	VPXOR        Y7, Y7, Y7
	ENCODE
	VEXTRACTI128 $1, Y7, X0
	VPADDD       X0, X7, X7
	VPSHUFD      $0xee, X7, X0
	VPADDD       X0, X7, X7
	VPSHUFD      $0x55, X7, X0
	VPADDD       X0, X7, X7
	VMOVD        X7, CX
	ADDL         CX, (R10)

next:
	ADDQ R13, SI
	ADDQ R14, DI
	ADDQ $4, AX
	ADDQ $4, BX
	ADDQ $8, DX
	ADDQ $4, R10
	DECQ R12
	JNZ  partition
	VZEROUPPER
	RET

// func encodeRowsAVX2(codes *uint8, x, mins, scales *float32, sums *int32, n, stride int, h uint64, maxCode float64, stochastic bool)
//
// Encodes n rows of eight columns of an along-rows partition at the
// given row stride (in elements): column c under (mins[c], scales[c]),
// rounding with counter h + c·phi, one row further on per phiRow, and
// writing its code sum to sums[c].
TEXT ·encodeRowsAVX2(SB), NOSPLIT, $0-73
	MOVQ         codes+0(FP), DI
	MOVQ         x+8(FP), SI
	MOVQ         mins+16(FP), AX
	MOVQ         scales+24(FP), BX
	MOVQ         n+40(FP), CX
	MOVQ         stride+48(FP), R9
	LEAQ         (R9*4), R8
	MOVBQZX      stochastic+72(FP), R11
	VMOVUPS      (AX), Y15
	VCVTPS2PD    (BX), Y14   // exact
	VCVTPS2PD    16(BX), Y13
	VBROADCASTSD maxCode+64(FP), Y12
	VXORPD       Y11, Y11, Y11
	VPBROADCASTQ h+56(FP), Y10
	VPADDQ       lanePhi<>+32(SB), Y10, Y9
	VPADDQ       lanePhi<>(SB), Y10, Y10
	MOVQ         $0x7f4a7c1500000000, AX // phiRow: the next row
	VMOVQ        AX, X8
	VPBROADCASTQ X8, Y8
	VPXOR        Y7, Y7, Y7
	ENCODE
	MOVQ         sums+32(FP), AX
	VMOVDQU      Y7, (AX)
	VZEROUPPER
	RET
