//go:build amd64

package quant

import "github.com/hackkv/hack/internal/cpufeat"

// minMaxColsAVX2 runs minMaxScalar's sweep from (+Inf, −Inf) over the
// first vl elements of each of nb partitions laid end to end bl elements
// apart from x, writing partition b's result to mins[b] and maxs[b]. vl
// must be a positive multiple of 8, at most bl.
//
//go:noescape
func minMaxColsAVX2(mins, maxs, x *float32, nb, bl, vl int)

// minMaxRowsAVX2 sweeps groups×8 columns down n rows at the given row
// stride (in elements): lane c runs minMaxScalar's loop over column c
// and writes its result to mins[c] and maxs[c].
//
//go:noescape
func minMaxRowsAVX2(mins, maxs, x *float32, n, groups, stride int)

// encodeColsAVX2 is encodeColsScalar over the first vl elements of each
// of nb partitions laid end to end bl elements apart, eight lanes at a
// time. vl must be a positive multiple of 8, at most bl.
//
//go:noescape
func encodeColsAVX2(codes *uint8, x, mins, scales *float32, hs *uint64, sums *int32, nb, bl, vl int, maxCode float64, stochastic bool)

// encodeRowsAVX2 is encodeRowsScalar over eight columns of an along-rows
// partition, n rows at the given row stride: column c encodes under
// (mins[c], scales[c]) with counters from h + c·phi, one row further on
// per phiRow, and writes its code sum to sums[c]. A NaN scale encodes
// its column as code 0.
//
//go:noescape
func encodeRowsAVX2(codes *uint8, x, mins, scales *float32, sums *int32, n, stride int, h uint64, maxCode float64, stochastic bool)

// The entry points below run the kernels over every whole vector — the
// first bl&^7 elements of each along-cols partition, the first
// len(mins)&^7 columns of an along-rows one — and the scalar loops over
// the rest.

func minMaxCols(mins, maxs, x []float32, bl int) {
	vl := 0
	if cpufeat.AVX2 {
		if vl = bl &^ 7; vl > 0 {
			minMaxColsAVX2(&mins[0], &maxs[0], &x[0], len(mins), bl, vl)
		}
	}
	minMaxColsScalar(mins, maxs, x, bl, vl)
}

func (r *rounder) encodeCols(codes []uint8, x, mins, scales []float32, hs []uint64, sums []int32, bl int) {
	vl := 0
	if cpufeat.AVX2 {
		if vl = bl &^ 7; vl > 0 {
			encodeColsAVX2(&codes[0], &x[0], &mins[0], &scales[0], &hs[0], &sums[0], len(mins), bl, vl, r.maxCode, r.stochastic)
		}
	}
	r.encodeColsScalar(codes, x, mins, scales, hs, sums, bl, vl)
}

func minMaxRows(mins, maxs, x []float32, n, stride int) {
	c := 0
	if cpufeat.AVX2 {
		if c = len(mins) &^ 7; c > 0 {
			minMaxRowsAVX2(&mins[0], &maxs[0], &x[0], n, c/8, stride)
		}
	}
	minMaxRowsScalar(mins, maxs, x, n, stride, c)
}

func (r *rounder) encodeRows(codes []uint8, x, mins, scales []float32, sums []int32, n, stride int, h uint64) {
	c := 0
	if cpufeat.AVX2 {
		for ; c+8 <= len(mins); c += 8 {
			encodeRowsAVX2(&codes[c], &x[c], &mins[c], &scales[c], &sums[c], n, stride, h+uint64(c)*phi, r.maxCode, r.stochastic)
		}
	}
	r.encodeRowsScalar(codes, x, mins, scales, sums, n, stride, h, c)
}
