//go:build amd64

package hack

// AVX2 fast path for the quantized dot product. VPMADDUBSW is the CPU's
// closest analogue to the INT8 tensor-core MACs the paper computes on
// (§5.2): it multiplies 32 unsigned×signed byte pairs per instruction
// into saturating int16 lanes, which VPMADDWD then widens into int32
// accumulators. Saturation cannot trigger as long as the signed-side
// operand's codes fit 6 bits (2·255·63 = 32130 < 2¹⁵), which covers
// every shipping HACK configuration — 2-bit KV codes, 4-bit INT4
// extension — with the 8-bit side riding in the unsigned lane. The
// kernels fall back to the unrolled pure-Go dot otherwise, with
// bit-identical results either way: integer accumulation is exact.

// dotU8MADD computes Σ u[k]·s[k] over n bytes (n must be a multiple of
// 32) with u treated as unsigned and s as signed bytes.
//
//go:noescape
func dotU8MADD(u, s *uint8, n int) int32

// dotU8MADDBlocks computes the per-partition dots of one row pair in a
// single call: out[b] = Σ u[b·bl+k]·s[b·bl+k] for k in [0, bl), for b in
// [0, blocks). bl must be a positive multiple of 32.
//
//go:noescape
func dotU8MADDBlocks(u, s *uint8, blocks, bl int, out *int32)

// dotU8MADDBlocks4 is the four-row register-blocked variant: the
// per-partition dots of four unsigned rows u0..u3 against one shared
// signed row s in a single call. Block b's four dots land interleaved
// at out[4b..4b+3] in row order. bl must be a positive multiple of 32.
//
//go:noescape
func dotU8MADDBlocks4(u0, u1, u2, u3, s *uint8, blocks, bl int, out *int32)

// dotU8MADDBlocks8 is the eight-row register-blocked variant over rows
// laid out contiguously at stride ustride from u (the quantized
// tensor's natural row layout). Block b's eight dots land interleaved
// at out[8b..8b+7] in row order. bl must be a positive multiple of 32.
//
//go:noescape
func dotU8MADDBlocks8(u *uint8, ustride int, s *uint8, blocks, bl int, out *int32)

// dotU8MADDCols8 is the eight-column variant for one row: the
// per-partition dots of one unsigned row u against eight signed rows
// laid out at stride sstride from s (eight consecutive cache rows).
// Block b's eight dots land at out[8b..8b+7] in row order. bl must be a
// positive multiple of 32.
//
//go:noescape
func dotU8MADDCols8(u, s *uint8, sstride, blocks, bl int, out *int32)

// correctCols applies one partition's Eq. (4) correction to n columns
// (a positive multiple of 8) whose B metadata is contiguous, with k =
// {sa, ma, aSum, blockLen·ma}: v[j] += sa·sb[j]·dots[j] + mb[j]·sa·aSum +
// ma·sb[j]·bsum[j] + blockLen·ma·mb[j], in the scalar expression's
// operation order and rounding (no fused multiply-add).
//
//go:noescape
func correctCols(v *float32, dots *int32, mb, sb *float32, bsum *int32, n int, k *[4]float32)

// sweepPairsV accumulates acc[j] += Σ p[k]·v[k·stride+j] over rows k in
// [0, 2·pairs) and columns j in [0, cols): the row-major P·V sweep with
// two V rows per VPMADDUBSW, V's codes (≤ 6 bits) in the signed lane.
// Row pairs add into uint16 lanes for up to run pairs at a time before
// widening, so run·(largest pair sum) must stay below 2¹⁶ (pairRun).
// cols must be a positive multiple of 32; pairs and run positive.
//
//go:noescape
func sweepPairsV(p, v *uint8, stride, cols, pairs, run int, acc *int32)

// sweepPairsP is sweepPairsV with P's codes (≤ 6 bits) in the signed
// lane and V's in the unsigned one.
//
//go:noescape
func sweepPairsP(p, v *uint8, stride, cols, pairs, run int, acc *int32)

// dotMADD is the dispatched dot product: the AVX2 body over the largest
// 32-byte-aligned prefix, a scalar tail for ragged block lengths. u is
// the unsigned operand (any 8-bit codes), s the signed-safe one (codes
// ≤ 6 bits).
func dotMADD(u, s []uint8) int32 {
	n := len(u) &^ 31
	var acc int32
	if n > 0 {
		acc = dotU8MADD(&u[0], &s[0], n)
	}
	for k := n; k < len(u); k++ {
		acc += int32(u[k]) * int32(s[k])
	}
	return acc
}
