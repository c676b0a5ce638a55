//go:build !amd64

package quant

// Off amd64 every partition takes the scalar reference loops.

func minMaxCols(mins, maxs, x []float32, bl int) { minMaxColsScalar(mins, maxs, x, bl, 0) }

func (r *rounder) encodeCols(codes []uint8, x, mins, scales []float32, hs []uint64, sums []int32, bl int) {
	r.encodeColsScalar(codes, x, mins, scales, hs, sums, bl, 0)
}

func minMaxRows(mins, maxs, x []float32, n, stride int) {
	minMaxRowsScalar(mins, maxs, x, n, stride, 0)
}

func (r *rounder) encodeRows(codes []uint8, x, mins, scales []float32, sums []int32, n, stride int, h uint64) {
	r.encodeRowsScalar(codes, x, mins, scales, sums, n, stride, h, 0)
}
