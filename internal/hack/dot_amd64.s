//go:build amd64

#include "textflag.h"

// SWEEP_PAIRS is the body of sweepPairsV and sweepPairsP. Its arguments
// order the two VPMADDUBSW operands — the broadcast code pair in Y5 and
// the interleaved V bytes in Y3/Y4 — so the signed-safe operand rides in
// the signed lane (the first source).
//
// Per 32-column chunk and per row pair (k, k+1): VPUNPCKL/HBW interleave
// the two V rows bytewise, so column j's codes sit side by side; a word
// broadcast of the two A codes (a_k, a_k+1) then lets VPMADDUBSW form
// a_k·v_k[j] + a_k+1·v_k+1[j] in int16 lane j. Those pair sums are
// non-negative and at most 2·255·63, so they never saturate, and up to
// `run` of them add exactly in uint16 lanes before VPUNPCKL/HWD
// zero-extends them into the int32 accumulators. The int32 lanes hold
// columns in unpack order ([0-3|16-19], [4-7|20-23], [8-11|24-27],
// [12-15|28-31]); VPERM2I128 restores column order before the add into
// acc.
#define SWEEP_PAIRS(SLO, ULO, SHI, UHI) \
	MOVQ p+0(FP), SI; \
	MOVQ v+8(FP), DI; \
	MOVQ stride+16(FP), DX; \
	MOVQ cols+24(FP), R11; \
	MOVQ pairs+32(FP), R9; \
	MOVQ run+40(FP), R10; \
	MOVQ acc+48(FP), R8; \
	VPXOR Y15, Y15, Y15; \
colLoop:; \
	VPXOR Y8, Y8, Y8; \
	VPXOR Y9, Y9, Y9; \
	VPXOR Y10, Y10, Y10; \
	VPXOR Y11, Y11, Y11; \
	MOVQ  SI, AX; \
	MOVQ  DI, BX; \
	MOVQ  R9, CX; \
runLoop:; \
	MOVQ    R10, R12; \
	CMPQ    CX, R12; \
	CMOVQLT CX, R12; \
	SUBQ    R12, CX; \
	VPXOR   Y6, Y6, Y6; \
	VPXOR   Y7, Y7, Y7; \
pairLoop:; \
	VMOVDQU      (BX), Y1; \
	VMOVDQU      (BX)(DX*1), Y2; \
	VPUNPCKLBW   Y2, Y1, Y3; \
	VPUNPCKHBW   Y2, Y1, Y4; \
	VPBROADCASTW (AX), Y5; \
	VPMADDUBSW   SLO, ULO, Y3; \
	VPMADDUBSW   SHI, UHI, Y4; \
	VPADDW       Y3, Y6, Y6; \
	VPADDW       Y4, Y7, Y7; \
	ADDQ         $2, AX; \
	LEAQ         (BX)(DX*2), BX; \
	DECQ         R12; \
	JNZ          pairLoop; \
	VPUNPCKLWD Y15, Y6, Y1; \
	VPADDD     Y1, Y8, Y8; \
	VPUNPCKHWD Y15, Y6, Y1; \
	VPADDD     Y1, Y9, Y9; \
	VPUNPCKLWD Y15, Y7, Y1; \
	VPADDD     Y1, Y10, Y10; \
	VPUNPCKHWD Y15, Y7, Y1; \
	VPADDD     Y1, Y11, Y11; \
	TESTQ      CX, CX; \
	JNZ        runLoop; \
	VPERM2I128 $0x20, Y9, Y8, Y1; \
	VPERM2I128 $0x20, Y11, Y10, Y2; \
	VPERM2I128 $0x31, Y9, Y8, Y3; \
	VPERM2I128 $0x31, Y11, Y10, Y4; \
	VPADDD     (R8), Y1, Y1; \
	VPADDD     32(R8), Y2, Y2; \
	VPADDD     64(R8), Y3, Y3; \
	VPADDD     96(R8), Y4, Y4; \
	VMOVDQU    Y1, (R8); \
	VMOVDQU    Y2, 32(R8); \
	VMOVDQU    Y3, 64(R8); \
	VMOVDQU    Y4, 96(R8); \
	ADDQ       $32, DI; \
	ADDQ       $128, R8; \
	SUBQ       $32, R11; \
	JNZ        colLoop; \
	VZEROUPPER; \
	RET

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

// func sweepPairsV(p, v *uint8, stride, cols, pairs, run int, acc *int32)
//
// acc[j] += Σ p[k]·v[k·stride+j] over k in [0, 2·pairs), j in [0, cols):
// the row-major P·V sweep, two V rows per VPMADDUBSW. V's codes (≤ 6
// bits) ride in the signed lane. cols must be a positive multiple of 32,
// pairs and run positive.
TEXT ·sweepPairsV(SB), NOSPLIT, $0-56
	SWEEP_PAIRS(Y3, Y5, Y4, Y5)

// func sweepPairsP(p, v *uint8, stride, cols, pairs, run int, acc *int32)
//
// sweepPairsV with P's codes (≤ 6 bits) in the signed lane, for an
// 8-bit V.
TEXT ·sweepPairsP(SB), NOSPLIT, $0-56
	SWEEP_PAIRS(Y5, Y3, Y5, Y4)

// func dotU8MADDCols8(u, s *uint8, sstride, blocks, bl int, out *int32)
//
// One unsigned row against eight signed rows at stride sstride from s:
// the per-partition dots of a query row against eight consecutive cache
// rows. Each 32-byte chunk of u is loaded once for all eight; at the end
// of a block, VPHADDD rounds and a lane fold reduce the eight int32x8
// accumulators into one vector of eight dots, stored at out[8b..8b+7]
// in row order — one horizontal reduction per eight dots instead of one
// per dot.
TEXT ·dotU8MADDCols8(SB), NOSPLIT, $0-48
	MOVQ u+0(FP), SI
	MOVQ s+8(FP), DI
	MOVQ sstride+16(FP), AX
	MOVQ blocks+24(FP), BX
	MOVQ bl+32(FP), DX
	MOVQ out+40(FP), R8
	LEAQ (DI)(AX*1), R9
	LEAQ (R9)(AX*1), R10
	LEAQ (R10)(AX*1), R11
	LEAQ (R11)(AX*1), R12
	LEAQ (R12)(AX*1), R13
	LEAQ (R13)(AX*1), R14
	LEAQ (R14)(AX*1), R15
	VPCMPEQW Y8, Y8, Y8
	VPSRLW   $15, Y8, Y8 // int16x16 of ones

blockLoopC8:
	VPXOR Y0, Y0, Y0
	VPXOR Y1, Y1, Y1
	VPXOR Y2, Y2, Y2
	VPXOR Y3, Y3, Y3
	VPXOR Y4, Y4, Y4
	VPXOR Y5, Y5, Y5
	VPXOR Y6, Y6, Y6
	VPXOR Y7, Y7, Y7
	MOVQ  DX, CX

chunk32c8:
	VMOVDQU    (SI), Y9 // shared unsigned bytes, loaded once per chunk
	VPMADDUBSW (DI), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y0, Y0
	VPMADDUBSW (R9), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y1, Y1
	VPMADDUBSW (R10), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y2, Y2
	VPMADDUBSW (R11), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y3, Y3
	VPMADDUBSW (R12), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y4, Y4
	VPMADDUBSW (R13), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y5, Y5
	VPMADDUBSW (R14), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y6, Y6
	VPMADDUBSW (R15), Y9, Y10
	VPMADDWD   Y8, Y10, Y10
	VPADDD     Y10, Y7, Y7
	ADDQ       $32, SI
	ADDQ       $32, DI
	ADDQ       $32, R9
	ADDQ       $32, R10
	ADDQ       $32, R11
	ADDQ       $32, R12
	ADDQ       $32, R13
	ADDQ       $32, R14
	ADDQ       $32, R15
	SUBQ       $32, CX
	JNZ        chunk32c8

	// Per 128-bit lane, two VPHADDD rounds leave rows 0-3 in Y0 and rows
	// 4-7 in Y4; adding the lanes finishes the eight sums.
	VPHADDD    Y1, Y0, Y0
	VPHADDD    Y3, Y2, Y2
	VPHADDD    Y5, Y4, Y4
	VPHADDD    Y7, Y6, Y6
	VPHADDD    Y2, Y0, Y0
	VPHADDD    Y6, Y4, Y4
	VPERM2I128 $0x20, Y4, Y0, Y1
	VPERM2I128 $0x31, Y4, Y0, Y2
	VPADDD     Y2, Y1, Y1
	VMOVDQU    Y1, (R8)
	ADDQ       $32, R8
	DECQ       BX
	JNZ        blockLoopC8

	VZEROUPPER
	RET

// func correctCols(v *float32, dots *int32, mb, sb *float32, bsum *int32, n int, k *[4]float32)
//
// The Eq. (4) correction of one partition for n columns (a positive
// multiple of 8), eight per step: with k = {sa, ma, aSum, blockLen·ma},
//
//	v[j] += sa·sb[j]·dots[j] + mb[j]·sa·aSum + ma·sb[j]·bsum[j] + blockLen·ma·mb[j]
//
// evaluated in the scalar kernel's order — each product left to right,
// the four terms summed left to right, then added to v[j] — with one
// VMULPS or VADDPS per scalar operation and no fused multiply-add, so
// every lane rounds exactly as the scalar expression does.
TEXT ·correctCols(SB), NOSPLIT, $0-56
	MOVQ v+0(FP), DI
	MOVQ dots+8(FP), SI
	MOVQ mb+16(FP), R8
	MOVQ sb+24(FP), R9
	MOVQ bsum+32(FP), R10
	MOVQ n+40(FP), CX
	MOVQ k+48(FP), AX
	VBROADCASTSS (AX), Y12   // sa
	VBROADCASTSS 4(AX), Y13  // ma
	VBROADCASTSS 8(AX), Y14  // aSum
	VBROADCASTSS 12(AX), Y15 // blockLen·ma

correct8:
	VMOVUPS   (R9), Y1  // sb
	VMOVUPS   (R8), Y2  // mb
	VCVTDQ2PS (SI), Y3  // dots
	VCVTDQ2PS (R10), Y4 // bsum
	VMULPS    Y1, Y12, Y5
	VMULPS    Y3, Y5, Y5 // sa·sb·dot
	VMULPS    Y12, Y2, Y6
	VMULPS    Y14, Y6, Y6 // mb·sa·aSum
	VADDPS    Y6, Y5, Y5
	VMULPS    Y1, Y13, Y6
	VMULPS    Y4, Y6, Y6 // ma·sb·bsum
	VADDPS    Y6, Y5, Y5
	VMULPS    Y2, Y15, Y6 // blockLen·ma·mb
	VADDPS    Y6, Y5, Y5
	VADDPS    (DI), Y5, Y5
	VMOVUPS   Y5, (DI)
	ADDQ      $32, DI
	ADDQ      $32, SI
	ADDQ      $32, R8
	ADDQ      $32, R9
	ADDQ      $32, R10
	SUBQ      $8, CX
	JNZ       correct8

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
