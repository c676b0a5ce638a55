//go:build !amd64

package hack

// Non-amd64 builds always take the unrolled pure-Go dot product
// (cpufeat.AVX2 is false there). dotMADD is never reached; it exists so
// the kernels compile on every architecture.
func dotMADD(u, s []uint8) int32 { return dotU8(u, s) }

// dotU8MADDBlocks is likewise unreachable off amd64.
func dotU8MADDBlocks(u, s *uint8, blocks, bl int, out *int32) {
	panic("hack: dotU8MADDBlocks without AVX2")
}

// dotU8MADDBlocks4 is likewise unreachable off amd64.
func dotU8MADDBlocks4(u0, u1, u2, u3, s *uint8, blocks, bl int, out *int32) {
	panic("hack: dotU8MADDBlocks4 without AVX2")
}

// dotU8MADDCols8 is likewise unreachable off amd64.
func dotU8MADDCols8(u, s *uint8, sstride, blocks, bl int, out *int32) {
	panic("hack: dotU8MADDCols8 without AVX2")
}

// correctCols is likewise unreachable off amd64.
func correctCols(v *float32, dots *int32, mb, sb *float32, bsum *int32, n int, k *[4]float32) {
	panic("hack: correctCols without AVX2")
}

// sweepPairsV is likewise unreachable off amd64.
func sweepPairsV(p, v *uint8, stride, cols, pairs, run int, acc *int32) {
	panic("hack: sweepPairsV without AVX2")
}

// sweepPairsP is likewise unreachable off amd64.
func sweepPairsP(p, v *uint8, stride, cols, pairs, run int, acc *int32) {
	panic("hack: sweepPairsP without AVX2")
}

// dotU8MADDBlocks8 is likewise unreachable off amd64.
func dotU8MADDBlocks8(u *uint8, ustride int, s *uint8, blocks, bl int, out *int32) {
	panic("hack: dotU8MADDBlocks8 without AVX2")
}
