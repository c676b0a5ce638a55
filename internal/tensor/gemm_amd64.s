//go:build amd64

#include "textflag.h"

// func axpyRowsAVX2(o, a, b *float32, k, n, ldb int)
//
// o[0:n] += Σ_z a[z]·b[z·ldb : z·ldb+n], z ascending, a[z] = ±0 skipped.
// Columns go in chunks of 32 (four YMM accumulators, so four independent
// add chains hide the VADDPS latency), then chunks of 8. Each chunk keeps
// its slice of o in registers across the whole z sweep. The zero test
// shifts the sign bit out of a[z]'s bits, so +0 and -0 both skip, as
// the scalar loop's av == 0 does; NaN does not.
TEXT ·axpyRowsAVX2(SB), NOSPLIT, $0-48
	MOVQ o+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ n+32(FP), DX
	MOVQ ldb+40(FP), R8
	SHLQ $2, R8 // b's row stride in bytes

cols32:
	CMPQ    DX, $32
	JL      cols8
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS 64(DI), Y2
	VMOVUPS 96(DI), Y3
	MOVQ    SI, R9  // a[z]
	MOVQ    BX, R10 // b[z, chunk]
	MOVQ    CX, R11 // z countdown

z32:
	MOVL         (R9), AX
	SHLL         $1, AX
	JZ           skip32
	VBROADCASTSS (R9), Y4
	VMULPS       (R10), Y4, Y5
	VADDPS       Y5, Y0, Y0
	VMULPS       32(R10), Y4, Y6
	VADDPS       Y6, Y1, Y1
	VMULPS       64(R10), Y4, Y7
	VADDPS       Y7, Y2, Y2
	VMULPS       96(R10), Y4, Y8
	VADDPS       Y8, Y3, Y3

skip32:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  z32

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ    $128, DI
	ADDQ    $128, BX
	SUBQ    $32, DX
	JMP     cols32

cols8:
	CMPQ    DX, $8
	JL      done
	VMOVUPS (DI), Y0
	MOVQ    SI, R9
	MOVQ    BX, R10
	MOVQ    CX, R11

z8:
	MOVL         (R9), AX
	SHLL         $1, AX
	JZ           skip8
	VBROADCASTSS (R9), Y4
	VMULPS       (R10), Y4, Y5
	VADDPS       Y5, Y0, Y0

skip8:
	ADDQ $4, R9
	ADDQ R8, R10
	DECQ R11
	JNZ  z8

	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, BX
	SUBQ    $8, DX
	JMP     cols8

done:
	VZEROUPPER
	RET
