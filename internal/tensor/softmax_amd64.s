//go:build amd64

#include "textflag.h"

// Four float64 copies of each constant of Exp (exp.go), so every
// instruction can take its constant as a 256-bit memory operand.
#define CONST4(name, bits) \
	DATA name+0(SB)/8, bits; \
	DATA name+8(SB)/8, bits; \
	DATA name+16(SB)/8, bits; \
	DATA name+24(SB)/8, bits; \
	GLOBL name(SB), RODATA|NOPTR, $32

CONST4(expAbs<>, $0x7fffffffffffffff)
CONST4(expSign<>, $0x8000000000000000)
CONST4(expVecMax<>, $0x405a000000000000)   // 104
CONST4(expNearZero<>, $0x3e30000000000000) // 2**-28
CONST4(expHalf<>, $0x3fe0000000000000)     // 0.5
CONST4(expOne<>, $0x3ff0000000000000)      // 1
CONST4(expTwo<>, $0x4000000000000000)      // 2
CONST4(expLog2e<>, $0x3ff71547652b82fe)
CONST4(expLn2Hi<>, $0x3fe62e42fee00000)
CONST4(expLn2Lo<>, $0x3dea39ef35793c76)
CONST4(expP1<>, $0x3fc5555555555555)
CONST4(expP2<>, $0xbf66c16c16bebd93)
CONST4(expP3<>, $0x3f11566aaf25de2c)
CONST4(expP4<>, $0xbebbbd41c5d26bf1)
CONST4(expP5<>, $0x3e66376972bea4d0)

DATA f32Sign<>+0(SB)/4, $0x80000000
DATA f32Sign<>+4(SB)/4, $0x80000000
DATA f32Sign<>+8(SB)/4, $0x80000000
DATA f32Sign<>+12(SB)/4, $0x80000000
GLOBL f32Sign<>(SB), RODATA|NOPTR, $16

DATA f32NegInf<>+0(SB)/4, $0xff800000
GLOBL f32NegInf<>(SB), RODATA|NOPTR, $4

// EXP4(bail) replaces the four float64 lanes x of Y0 with Exp(x), or
// jumps to bail with Y0 unchanged if any lane is NaN or |x| > 104. It is
// exp.go's Exp line by line, each operation one rounded instruction:
//
//	near := |x| < 2**-28                  (Exp returns 1 + x there)
//	k    := int(Log2e*x ± 0.5)            (± the sign of x; VROUNDPD $3 truncates as int() does,
//	                                       and VCVTTPD2DQ takes the same k as an integer)
//	hi   := x - k*Ln2Hi;  lo := k*Ln2Lo;  r := hi - lo;  t := r*r
//	c    := r - t*(P1 + t*(P2 + t*(P3 + t*(P4 + t*P5))))
//	y    := 1 - ((lo - (r*c)/(2-c)) - hi)
//	Ldexp(y, k): y's exponent field plus k, exact since every result is a
//	normal float64 (|k| ≤ 151).
//
// Sums are written with their operands swapped where the memory operand
// must come second; IEEE addition and multiplication are commutative, so
// the bits are Exp's. Clobbers Y1-Y7 and BX.
#define EXP4(bail) \
	VANDPD      expAbs<>(SB), Y0, Y1; \
	VCMPPD      $0x12, expVecMax<>(SB), Y1, Y2; \
	VMOVMSKPD   Y2, BX; \
	CMPQ        BX, $15; \
	JNE         bail; \
	VCMPPD      $0x11, expNearZero<>(SB), Y1, Y7; \
	VANDPD      expSign<>(SB), Y0, Y2; \
	VORPD       expHalf<>(SB), Y2, Y2; \
	VMULPD      expLog2e<>(SB), Y0, Y3; \
	VADDPD      Y2, Y3, Y3; \
	VROUNDPD    $3, Y3, Y5; \
	VCVTTPD2DQY Y3, X4; \
	VPMOVSXDQ   X4, Y4; \
	VPSLLQ      $52, Y4, Y4; \
	VMULPD      expLn2Hi<>(SB), Y5, Y2; \
	VSUBPD      Y2, Y0, Y2; \
	VMULPD      expLn2Lo<>(SB), Y5, Y3; \
	VSUBPD      Y3, Y2, Y5; \
	VMULPD      Y5, Y5, Y6; \
	VMULPD      expP5<>(SB), Y6, Y1; \
	VADDPD      expP4<>(SB), Y1, Y1; \
	VMULPD      Y1, Y6, Y1; \
	VADDPD      expP3<>(SB), Y1, Y1; \
	VMULPD      Y1, Y6, Y1; \
	VADDPD      expP2<>(SB), Y1, Y1; \
	VMULPD      Y1, Y6, Y1; \
	VADDPD      expP1<>(SB), Y1, Y1; \
	VMULPD      Y1, Y6, Y1; \
	VSUBPD      Y1, Y5, Y1; \
	VMULPD      Y1, Y5, Y6; \
	VMOVUPD     expTwo<>(SB), Y5; \
	VSUBPD      Y1, Y5, Y5; \
	VDIVPD      Y5, Y6, Y6; \
	VSUBPD      Y6, Y3, Y6; \
	VSUBPD      Y2, Y6, Y6; \
	VMOVUPD     expOne<>(SB), Y5; \
	VSUBPD      Y6, Y5, Y6; \
	VPADDQ      Y4, Y6, Y6; \
	VADDPD      expOne<>(SB), Y0, Y0; \
	VBLENDVPD   Y7, Y0, Y6, Y0

// func expSumAVX2(x *float32, n int, m, sum float32) (int, float32)
TEXT ·expSumAVX2(SB), NOSPLIT, $0-36
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS m+16(FP), X8
	VMOVSS       sum+20(FP), X10
	XORQ         AX, AX

expLoop:
	CMPQ       AX, CX
	JGE        expDone
	VMOVUPS    (DI)(AX*4), X0
	VSUBPS     X8, X0, X0 // x - m, rounded to float32
	VCVTPS2PD  X0, Y0
	EXP4(expDone)
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (DI)(AX*4)
	VADDSS     X0, X10, X10 // sum += e[0], e[1], e[2], e[3] in order
	VPERMILPS  $1, X0, X1
	VADDSS     X1, X10, X10
	VPERMILPS  $2, X0, X1
	VADDSS     X1, X10, X10
	VPERMILPS  $3, X0, X1
	VADDSS     X1, X10, X10
	ADDQ       $4, AX
	JMP        expLoop

expDone:
	MOVQ   AX, ret+24(FP)
	VMOVSS X10, ret1+32(FP)
	VZEROUPPER
	RET

// func siluAVX2(x *float32, n int) int
TEXT ·siluAVX2(SB), NOSPLIT, $0-24
	MOVQ x+0(FP), DI
	MOVQ n+8(FP), CX
	XORQ AX, AX

siluLoop:
	CMPQ       AX, CX
	JGE        siluDone
	VMOVUPS    (DI)(AX*4), X9
	VXORPS     f32Sign<>(SB), X9, X0 // -v
	VCVTPS2PD  X0, Y0
	EXP4(siluDone)
	VADDPD     expOne<>(SB), Y0, Y0 // 1 + exp(-v)
	VCVTPD2PSY Y0, X0
	VDIVPS     X0, X9, X0            // v / float32(1 + exp(-v))
	VMOVUPS    X0, (DI)(AX*4)
	ADDQ       $4, AX
	JMP        siluLoop

siluDone:
	MOVQ AX, ret+16(FP)
	VZEROUPPER
	RET

// func rowMaxAVX2(x *float32, n int) float32
//
// Lane-wise m = v > m ? v : m: VMAXPS returns its second source (here the
// accumulator) when either is NaN or both are equal. The accumulators
// never hold NaN, so the cross-lane reduction's order cannot matter.
TEXT ·rowMaxAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS f32NegInf<>(SB), Y0

maxLoop:
	VMOVUPS (DI), Y1
	VMAXPS  Y0, Y1, Y0
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     maxLoop

	VEXTRACTF128 $1, Y0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0x4e, X0, X1
	VMAXPS       X0, X1, X0
	VPERMILPS    $0xb1, X0, X1
	VMAXPS       X0, X1, X0
	VMOVSS       X0, ret+16(FP)
	VZEROUPPER
	RET

// func scaleAVX2(x *float32, n int, s float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-20
	MOVQ         x+0(FP), DI
	MOVQ         n+8(FP), CX
	VBROADCASTSS s+16(FP), Y1

scaleLoop:
	VMULPS  (DI), Y1, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	SUBQ    $8, CX
	JNZ     scaleLoop

	VZEROUPPER
	RET
