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

// dotU8MADDBlocks8 is likewise unreachable off amd64.
func dotU8MADDBlocks8(u *uint8, ustride int, s *uint8, blocks, bl int, out *int32) {
	panic("hack: dotU8MADDBlocks8 without AVX2")
}
