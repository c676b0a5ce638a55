package quant

import (
	"math"

	"github.com/hackkv/hack/internal/fp16"
	"github.com/hackkv/hack/internal/tensor"
)

// colsBatchLen and rowsChunk size the stack scratch of one kernel call:
// up to colsBatchLen along-cols partitions, or rowsChunk columns of an
// along-rows partition.
const (
	colsBatchLen = 64
	rowsChunk    = 64
)

// rounder is one quantization pass's rounding state.
type rounder struct {
	stochastic bool
	key        uint64
	row0       int
	maxCode    float64
}

// meta rounds a partition's (min, max) to the (min, scale) it stores.
// The paper stores m and s in FP16 (§6); rounding them the same way
// keeps prefill and decode instances in bit-for-bit agreement.
func (r *rounder) meta(minV, maxV float32) (float32, float32) {
	return fp16.Round(minV), fp16.Round((maxV - minV) / float32(r.maxCode))
}

// colsBatch collects along-cols partitions of one length that lie end
// to end in the source, in the codes and in the metadata — a P row's
// live partitions, or the one-partition rows of a K or Q head — so that
// one kernel call sweeps them all.
type colsBatch struct {
	x0, c0, mi0 int                  // first partition's offsets in the source, codes and metadata
	bl, n       int                  // partition length and count
	hs          [colsBatchLen]uint64 // each partition's first counter
	maxs        [colsBatchLen]float32
}

// addCols queues the along-cols partition of bl elements at source
// offset x, code offset c and metadata index mi, its first element
// rounding with counter h, flushing the batch first if the partition does
// not continue it.
func (r *rounder) addCols(b *colsBatch, t *Tensor, data []float32, x, c, mi, bl int, h uint64) {
	if b.n > 0 && (bl != b.bl || x != b.x0+b.n*bl || c != b.c0+b.n*bl || mi != b.mi0+b.n || b.n == colsBatchLen) {
		r.flushCols(b, t, data)
	}
	if b.n == 0 {
		b.x0, b.c0, b.mi0, b.bl = x, c, mi, bl
	}
	b.hs[b.n] = h
	b.n++
}

// flushCols quantizes the queued partitions: min/max sweep, metadata,
// encode.
func (r *rounder) flushCols(b *colsBatch, t *Tensor, data []float32) {
	n, bl := b.n, b.bl
	if n == 0 {
		return
	}
	x := data[b.x0 : b.x0+n*bl]
	codes := t.Codes[b.c0 : b.c0+n*bl]
	mins, scales, sums := t.Min[b.mi0:b.mi0+n], t.Scale[b.mi0:b.mi0+n], t.Sums[b.mi0:b.mi0+n]
	maxs := b.maxs[:n]
	for k := range mins {
		mins[k], maxs[k] = float32(math.Inf(1)), float32(math.Inf(-1))
	}
	minMaxCols(mins, maxs, x, bl)
	for k := range mins {
		mins[k], scales[k] = r.meta(mins[k], maxs[k])
	}
	clear(sums)
	r.encodeCols(codes, x, mins, scales, b.hs[:n], sums, bl)
	b.n = 0
}

// quantizeRows encodes partition b of every column of an along-rows
// tensor: rows [lo, hi) of m, all columns at once.
func (r *rounder) quantizeRows(t *Tensor, m *tensor.Matrix, b int) {
	lo, hi := t.BlockRange(b)
	n, stride := hi-lo, t.Cols
	x := m.Data[lo*stride : hi*stride]
	codes := t.Codes[lo*stride : hi*stride]
	h := counter(r.key, r.row0+lo, 0)
	for v0 := 0; v0 < stride; v0 += rowsChunk {
		w := min(rowsChunk, stride-v0)
		var mins, maxs, scales [rowsChunk]float32
		var sums [rowsChunk]int32
		minMaxRows(mins[:w], maxs[:w], x[v0:], n, stride)
		for c := 0; c < w; c++ {
			minV, scale := r.meta(mins[c], maxs[c])
			mi := t.metaIndex(v0+c, b)
			t.Min[mi], t.Scale[mi] = minV, scale
			mins[c], scales[c] = minV, scale
			if !(scale > 0) {
				// A NaN scale makes every quotient NaN, which encodes as
				// code 0 — what a degenerate column's codes are.
				scales[c] = float32(math.NaN())
			}
		}
		r.encodeRows(codes[v0:], x[v0:], mins[:w], scales[:w], sums[:w], n, stride, h+uint64(v0)*phi)
		for c := 0; c < w; c++ {
			t.Sums[t.metaIndex(v0+c, b)] = sums[c]
		}
	}
}

// The scalar reference. Everything below is the quantizer's definition:
// the SIMD kernels reproduce it bit for bit, run it on the elements that
// do not fill a vector, and are tested against it.

// minMaxScalar continues a min/max sweep from (minV, maxV) over the n
// elements x[0], x[step], …, x[(n−1)·step]. An element replaces the
// running min (max) only when strictly below (above) it, so NaN never
// enters and between equal values — +0 and −0 — the first one wins.
func minMaxScalar(x []float32, n, step int, minV, maxV float32) (float32, float32) {
	for k := 0; k < n; k++ {
		v := x[k*step]
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	return minV, maxV
}

// minMaxColsScalar continues the sweep of each of len(mins) partitions
// of bl elements laid end to end in x over its elements [from, bl).
func minMaxColsScalar(mins, maxs, x []float32, bl, from int) {
	for k := range mins {
		mins[k], maxs[k] = minMaxScalar(x[k*bl+from:], bl-from, 1, mins[k], maxs[k])
	}
}

// encodeColsScalar encodes elements [from, bl) of each of len(mins)
// partitions of bl elements laid end to end in x into codes at the same
// offsets: partition k under (mins[k], scales[k]), element j rounding
// with counter hs[k] + j·phi, its code sum added to sums[k].
func (r *rounder) encodeColsScalar(codes []uint8, x, mins, scales []float32, hs []uint64, sums []int32, bl, from int) {
	for k := range mins {
		o := k*bl + from
		sums[k] += r.encodeScalar(codes[o:], x[o:], bl-from, 1, mins[k], scales[k], hs[k]+uint64(from)*phi, phi)
	}
}

// minMaxRowsScalar sweeps columns [from, len(mins)) of an along-rows
// partition, n rows at the given row stride, one column at a time.
func minMaxRowsScalar(mins, maxs, x []float32, n, stride, from int) {
	for c := from; c < len(mins); c++ {
		mins[c], maxs[c] = minMaxScalar(x[c:], n, stride, float32(math.Inf(1)), float32(math.Inf(-1)))
	}
}

// encodeRowsScalar encodes columns [from, len(mins)) of an along-rows
// partition, n rows at the given row stride: column c rounds with
// counters from h + c·phi, one row further on per phiRow, and writes its
// code sum to sums[c].
func (r *rounder) encodeRowsScalar(codes []uint8, x, mins, scales []float32, sums []int32, n, stride int, h uint64, from int) {
	for c := from; c < len(mins); c++ {
		sums[c] = r.encodeScalar(codes[c:], x[c:], n, stride, mins[c], scales[c], h+uint64(c)*phi, phiRow)
	}
}

// encodeScalar writes the codes of the n elements x[k·step] to
// codes[k·step], element k rounding with counter h + k·hstep, and
// returns their sum.
func (r *rounder) encodeScalar(codes []uint8, x []float32, n, step int, minV, scale float32, h, hstep uint64) int32 {
	var sum int32
	for k := 0; k < n; k++ {
		code := r.code(x[k*step], minV, scale, h)
		codes[k*step] = code
		sum += int32(code)
		h += hstep
	}
	return sum
}

// code maps value x onto its partition's code grid, rounding a
// fractional code up when the uniform of counter h falls below its
// fraction. A degenerate partition (scale ≤ 0 or NaN) encodes as 0.
func (r *rounder) code(x, minV, scale float32, h uint64) uint8 {
	if !(scale > 0) {
		return 0
	}
	q := float64(x-minV) / float64(scale)
	if q < 0 {
		q = 0
	}
	if q > r.maxCode {
		q = r.maxCode
	}
	if !r.stochastic {
		return uint8(math.Round(q))
	}
	c := math.Floor(q)
	if f := q - c; f > 0 && uniform(h) < f {
		c++
	}
	return uint8(c)
}
