//go:build amd64

#include "textflag.h"

// func dotU8MADD(u, s *uint8, n int) int32
//
// Σ u[k]·s[k] over n bytes (n a multiple of 32): u unsigned, s signed.
// Per 32-byte step: VPMADDUBSW forms 16 int16 pair-sums, VPMADDWD (by a
// vector of ones) widens them into 8 int32 lanes, VPADDD accumulates.
// The caller guarantees s's codes fit 6 bits so the int16 stage cannot
// saturate.
TEXT ·dotU8MADD(SB), NOSPLIT, $0-28
	MOVQ u+0(FP), SI
	MOVQ s+8(FP), DI
	MOVQ n+16(FP), CX
	VPXOR    Y0, Y0, Y0  // Y0: int32x8 accumulator
	VPCMPEQW Y3, Y3, Y3
	VPSRLW   $15, Y3, Y3 // Y3: int16x16 of ones

loop32:
	VMOVDQU    (SI), Y1     // unsigned bytes
	VMOVDQU    (DI), Y2     // signed bytes
	VPMADDUBSW Y2, Y1, Y1   // int16 pair-sums u*s
	VPMADDWD   Y3, Y1, Y1   // widen to int32 quads
	VPADDD     Y1, Y0, Y0
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $32, CX
	JNZ        loop32

	// Horizontal reduction of the 8 int32 lanes.
	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xEE, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x55, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	VZEROUPPER
	MOVL AX, ret+24(FP)
	RET

// func dotU8MADDBlocks(u, s *uint8, blocks, bl int, out *int32)
//
// Per-partition dot products in one call: for b in [0, blocks), writes
// Σ u[b·bl+k]·s[b·bl+k] over k in [0, bl) to out[b]. bl must be a
// positive multiple of 32. Amortizes the call overhead the per-block
// kernel pays on small partitions (Π=32/64).
TEXT ·dotU8MADDBlocks(SB), NOSPLIT, $0-40
	MOVQ u+0(FP), SI
	MOVQ s+8(FP), DI
	MOVQ blocks+16(FP), BX
	MOVQ bl+24(FP), DX
	MOVQ out+32(FP), R8
	VPCMPEQW Y3, Y3, Y3
	VPSRLW   $15, Y3, Y3 // int16x16 of ones

blockLoop:
	VPXOR Y0, Y0, Y0
	MOVQ  DX, CX

chunk32:
	VMOVDQU    (SI), Y1
	VMOVDQU    (DI), Y2
	VPMADDUBSW Y2, Y1, Y1
	VPMADDWD   Y3, Y1, Y1
	VPADDD     Y1, Y0, Y0
	ADDQ       $32, SI
	ADDQ       $32, DI
	SUBQ       $32, CX
	JNZ        chunk32

	VEXTRACTI128 $1, Y0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0xEE, X0, X1
	VPADDD       X1, X0, X0
	VPSHUFD      $0x55, X0, X1
	VPADDD       X1, X0, X0
	VMOVD        X0, AX
	MOVL         AX, (R8)
	ADDQ         $4, R8
	DECQ         BX
	JNZ          blockLoop

	VZEROUPPER
	RET

// func dotU8MADDBlocks4(u0, u1, u2, u3, s *uint8, blocks, bl int, out *int32)
//
// Four-row register-blocked variant: the per-partition dots of four
// unsigned rows against one shared signed row in a single call. Each
// 32-byte chunk of s is loaded once and MADDed against all four u rows
// while it sits in a register, cutting the shared-operand loads and the
// loop control to a quarter of four single-row calls — the batched
// verify's Q rows sweep the same cache row. out is interleaved: block
// b's four dots land at out[4b..4b+3], in row order.
TEXT ·dotU8MADDBlocks4(SB), NOSPLIT, $0-64
	MOVQ u0+0(FP), SI
	MOVQ u1+8(FP), R9
	MOVQ u2+16(FP), R10
	MOVQ u3+24(FP), R11
	MOVQ s+32(FP), DI
	MOVQ blocks+40(FP), BX
	MOVQ bl+48(FP), DX
	MOVQ out+56(FP), R8
	VPCMPEQW Y3, Y3, Y3
	VPSRLW   $15, Y3, Y3 // int16x16 of ones

blockLoop4:
	VPXOR Y0, Y0, Y0 // row 0 accumulator
	VPXOR Y1, Y1, Y1 // row 1
	VPXOR Y4, Y4, Y4 // row 2
	VPXOR Y5, Y5, Y5 // row 3
	MOVQ  DX, CX

chunk32x4:
	VMOVDQU    (DI), Y2 // shared signed bytes, loaded once per chunk
	VMOVDQU    (SI), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y0, Y0
	VMOVDQU    (R9), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y1, Y1
	VMOVDQU    (R10), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y4, Y4
	VMOVDQU    (R11), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y5, Y5
	ADDQ       $32, SI
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $32, DI
	SUBQ       $32, CX
	JNZ        chunk32x4

	// Reduce the four accumulators; store interleaved per block.
	VEXTRACTI128 $1, Y0, X6
	VPADDD       X6, X0, X0
	VPSHUFD      $0xEE, X0, X6
	VPADDD       X6, X0, X0
	VPSHUFD      $0x55, X0, X6
	VPADDD       X6, X0, X0
	VMOVD        X0, AX
	MOVL         AX, (R8)
	VEXTRACTI128 $1, Y1, X6
	VPADDD       X6, X1, X1
	VPSHUFD      $0xEE, X1, X6
	VPADDD       X6, X1, X1
	VPSHUFD      $0x55, X1, X6
	VPADDD       X6, X1, X1
	VMOVD        X1, AX
	MOVL         AX, 4(R8)
	VEXTRACTI128 $1, Y4, X6
	VPADDD       X6, X4, X4
	VPSHUFD      $0xEE, X4, X6
	VPADDD       X6, X4, X4
	VPSHUFD      $0x55, X4, X6
	VPADDD       X6, X4, X4
	VMOVD        X4, AX
	MOVL         AX, 8(R8)
	VEXTRACTI128 $1, Y5, X6
	VPADDD       X6, X5, X5
	VPSHUFD      $0xEE, X5, X6
	VPADDD       X6, X5, X5
	VPSHUFD      $0x55, X5, X6
	VPADDD       X6, X5, X5
	VMOVD        X5, AX
	MOVL         AX, 12(R8)
	ADDQ         $16, R8
	DECQ         BX
	JNZ          blockLoop4

	VZEROUPPER
	RET

// func dotU8MADDBlocks8(u *uint8, ustride int, s *uint8, blocks, bl int, out *int32)
//
// Eight-row register-blocked variant over rows laid out contiguously at
// stride ustride from u — the quantized tensor's natural row layout, so
// one base pointer addresses the whole group. Each 32-byte chunk of the
// shared signed row is loaded once and MADDed against all eight resident
// rows, amortizing the shared-operand loads and loop control across the
// whole row group. out is interleaved: block b's eight dots land at
// out[8b..8b+7], in row order.
TEXT ·dotU8MADDBlocks8(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ ustride+8(FP), AX
	MOVQ s+16(FP), DI
	MOVQ blocks+24(FP), BX
	MOVQ bl+32(FP), DX
	MOVQ out+40(FP), R8
	LEAQ (SI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), R14
	LEAQ (R14)(AX*1), R15
	VPCMPEQW Y3, Y3, Y3
	VPSRLW   $15, Y3, Y3 // int16x16 of ones

blockLoop8:
	VPXOR Y0, Y0, Y0   // row 0 accumulator
	VPXOR Y1, Y1, Y1   // row 1
	VPXOR Y4, Y4, Y4   // row 2
	VPXOR Y5, Y5, Y5   // row 3
	VPXOR Y7, Y7, Y7   // row 4
	VPXOR Y8, Y8, Y8   // row 5
	VPXOR Y9, Y9, Y9   // row 6
	VPXOR Y10, Y10, Y10 // row 7
	MOVQ  DX, CX

chunk32x8:
	VMOVDQU    (DI), Y2 // shared signed bytes, loaded once per chunk
	VMOVDQU    (SI), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y0, Y0
	VMOVDQU    (R9), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y1, Y1
	VMOVDQU    (R10), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y4, Y4
	VMOVDQU    (R11), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y5, Y5
	VMOVDQU    (R12), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y7, Y7
	VMOVDQU    (R13), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y8, Y8
	VMOVDQU    (R14), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y9, Y9
	VMOVDQU    (R15), Y6
	VPMADDUBSW Y2, Y6, Y6
	VPMADDWD   Y3, Y6, Y6
	VPADDD     Y6, Y10, Y10
	ADDQ       $32, SI
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $32, R12
	ADDQ       $32, R13
	ADDQ       $32, R14
	ADDQ       $32, R15
	ADDQ       $32, DI
	SUBQ       $32, CX
	JNZ        chunk32x8

	// Reduce the eight accumulators; store interleaved per block.
	VEXTRACTI128 $1, Y0, X6
	VPADDD       X6, X0, X0
	VPSHUFD      $0xEE, X0, X6
	VPADDD       X6, X0, X0
	VPSHUFD      $0x55, X0, X6
	VPADDD       X6, X0, X0
	VMOVD        X0, AX
	MOVL         AX, (R8)
	VEXTRACTI128 $1, Y1, X6
	VPADDD       X6, X1, X1
	VPSHUFD      $0xEE, X1, X6
	VPADDD       X6, X1, X1
	VPSHUFD      $0x55, X1, X6
	VPADDD       X6, X1, X1
	VMOVD        X1, AX
	MOVL         AX, 4(R8)
	VEXTRACTI128 $1, Y4, X6
	VPADDD       X6, X4, X4
	VPSHUFD      $0xEE, X4, X6
	VPADDD       X6, X4, X4
	VPSHUFD      $0x55, X4, X6
	VPADDD       X6, X4, X4
	VMOVD        X4, AX
	MOVL         AX, 8(R8)
	VEXTRACTI128 $1, Y5, X6
	VPADDD       X6, X5, X5
	VPSHUFD      $0xEE, X5, X6
	VPADDD       X6, X5, X5
	VPSHUFD      $0x55, X5, X6
	VPADDD       X6, X5, X5
	VMOVD        X5, AX
	MOVL         AX, 12(R8)
	VEXTRACTI128 $1, Y7, X6
	VPADDD       X6, X7, X7
	VPSHUFD      $0xEE, X7, X6
	VPADDD       X6, X7, X7
	VPSHUFD      $0x55, X7, X6
	VPADDD       X6, X7, X7
	VMOVD        X7, AX
	MOVL         AX, 16(R8)
	VEXTRACTI128 $1, Y8, X6
	VPADDD       X6, X8, X8
	VPSHUFD      $0xEE, X8, X6
	VPADDD       X6, X8, X8
	VPSHUFD      $0x55, X8, X6
	VPADDD       X6, X8, X8
	VMOVD        X8, AX
	MOVL         AX, 20(R8)
	VEXTRACTI128 $1, Y9, X6
	VPADDD       X6, X9, X9
	VPSHUFD      $0xEE, X9, X6
	VPADDD       X6, X9, X9
	VPSHUFD      $0x55, X9, X6
	VPADDD       X6, X9, X9
	VMOVD        X9, AX
	MOVL         AX, 24(R8)
	VEXTRACTI128 $1, Y10, X6
	VPADDD       X6, X10, X10
	VPSHUFD      $0xEE, X10, X6
	VPADDD       X6, X10, X10
	VPSHUFD      $0x55, X10, X6
	VPADDD       X6, X10, X10
	VMOVD        X10, AX
	MOVL         AX, 28(R8)
	ADDQ         $32, R8
	DECQ         BX
	JNZ          blockLoop8

	VZEROUPPER
	RET
