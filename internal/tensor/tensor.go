// Package tensor provides the dense row-major matrix type used throughout
// the HACK reproduction, together with the reference floating-point
// kernels (matmul, softmax, transpose) that the quantized paths are
// validated against.
//
// All higher-precision computation in this repository uses float32 as the
// stand-in for the paper's FP16/FP32 mix; FP16 storage effects are applied
// explicitly via the fp16 package where the paper stores or transmits
// half-precision data.
//
// Exactness contract. Every kernel here returns the same bits on every
// machine and through every code path: the AVX2 forms (amd64 with AVX2,
// probed by package cpufeat) repeat the scalar loops' roundings in the
// scalar loops' order, and no product is fused into a sum. Softmax and
// SiLU exponentiate with Exp, the algorithm of math.Exp's pure-Go form
// written in this package, not with math.Exp, whose amd64 assembly is a
// different algorithm; the AVX2 lanes compute Exp's operations in Exp's
// order for |x| ≤ 104 and hand every other input to Exp. Rounded to
// float32, Exp equals math.Exp on every input these kernels feed it, as
// TestExpExhaustive checks in both forms (-exp.exhaustive): every non-NaN
// float32 x in [−104, 0) for a softmax exp(v − max) (below −104 both
// round to 0), and every non-NaN float32 v for SiLU's
// v / float32(1+exp(−v)). So a served token is the one math.Exp would
// give, on every host.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major matrix of float32 values.
type Matrix struct {
	Rows, Cols int
	// Data holds Rows*Cols values; element (i, j) is Data[i*Cols+j].
	Data []float32
}

// New allocates a zero matrix with the given shape. It panics if either
// dimension is negative.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows x cols matrix. It panics if
// len(data) != rows*cols.
func FromSlice(rows, cols int, data []float32) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Reset reshapes m to rows×cols and zeroes every element, reusing the
// backing array when it has capacity. It is the destination-reuse
// primitive behind the accumulating *Into kernels: a matrix Reset in a
// loop allocates only when it grows past its high-water mark. It panics
// on a negative dimension and returns m.
func (m *Matrix) Reset(rows, cols int) *Matrix {
	if m.reshape(rows, cols) {
		clear(m.Data)
	}
	return m
}

// Reshape is Reset without the zeroing: the elements hold whatever the
// reused backing array held, for a kernel that writes every element
// before anything reads it. It panics on a negative dimension and
// returns m.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	m.reshape(rows, cols)
	return m
}

// reshape sets m's shape and length, and reports whether it kept the old
// backing array (so its elements are stale, not fresh zeros).
func (m *Matrix) reshape(rows, cols int) (reused bool) {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%d", rows, cols))
	}
	m.Rows, m.Cols = rows, cols
	n := rows * cols
	if cap(m.Data) >= n {
		m.Data = m.Data[:n]
		return true
	}
	// Grow geometrically so a matrix resized upward one row at a time
	// (the decode loop's score buffer) reallocates O(log n) times, not
	// every call.
	m.Data = make([]float32, n, max(n, 2*cap(m.Data)))
	return false
}

// CopyInto copies src into m, reshaping m as needed, and returns m.
func (m *Matrix) CopyInto(src *Matrix) *Matrix {
	m.Reshape(src.Rows, src.Cols)
	copy(m.Data, src.Data)
	return m
}

// SliceRows returns a view of rows [lo, hi) sharing storage with m.
func (m *Matrix) SliceRows(lo, hi int) *Matrix {
	if lo < 0 || hi > m.Rows || lo > hi {
		panic(fmt.Sprintf("tensor: row slice [%d:%d) out of range for %d rows", lo, hi, m.Rows))
	}
	return &Matrix{Rows: hi - lo, Cols: m.Cols, Data: m.Data[lo*m.Cols : hi*m.Cols]}
}

// SliceCols returns a copy of columns [lo, hi) of m. Column slices cannot
// share row-major storage, so this always copies.
func (m *Matrix) SliceCols(lo, hi int) *Matrix {
	return m.SliceColsInto(&Matrix{}, lo, hi)
}

// SliceColsInto copies columns [lo, hi) of m into dst (reshaped as
// needed) and returns dst — SliceCols without the per-call allocation.
func (m *Matrix) SliceColsInto(dst *Matrix, lo, hi int) *Matrix {
	if lo < 0 || hi > m.Cols || lo > hi {
		panic(fmt.Sprintf("tensor: col slice [%d:%d) out of range for %d cols", lo, hi, m.Cols))
	}
	dst.Reshape(m.Rows, hi-lo)
	for i := 0; i < m.Rows; i++ {
		copy(dst.Row(i), m.Row(i)[lo:hi])
	}
	return dst
}

// AppendRows appends the rows of b to m, returning a matrix that may reuse
// m's storage. The column counts must match; m may be nil or empty — an
// empty non-nil m keeps its backing array, so a buffer cycled through
// fill/flush (the RQE V tail) stops allocating at steady state.
func AppendRows(m, b *Matrix) *Matrix {
	if m == nil {
		out := New(b.Rows, b.Cols)
		copy(out.Data, b.Data)
		return out
	}
	if m.Rows == 0 {
		m.Cols = b.Cols
		m.Data = append(m.Data[:0], b.Data...)
		m.Rows = b.Rows
		return m
	}
	if m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AppendRows cols %d != %d", m.Cols, b.Cols))
	}
	m.Data = append(m.Data, b.Data...)
	m.Rows += b.Rows
	return m
}

// Grow extends a buffer to n elements, reallocating geometrically so a
// slice regrown one step at a time (the decode loop's per-token scratch)
// amortizes to O(log n) allocations. Newly exposed elements are zero;
// reused elements keep their contents — callers overwrite them. Shared
// by the quantizer and kernel scratch buffers.
func Grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return append(s[:cap(s)], make([]T, n-cap(s))...)[:n]
	}
	return s[:n]
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := New(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			t.Data[j*t.Cols+i] = v
		}
	}
	return t
}

// MatMul computes a × b with float32 accumulation, the reference kernel
// the quantized paths approximate. It panics on a shape mismatch.
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(&Matrix{}, a, b)
}

// MatMulInto computes a × b into dst (reshaped and zeroed first),
// returning dst. Identical results to MatMul without the per-call output
// allocation once dst has grown to its steady-state size.
//
// Each output row accumulates a[i,z]·b[z,j] for z ascending, skipping
// zero a[i,z] (a causally masked probability row costs nothing past its
// diagonal). On AVX2 hardware eight columns go per instruction, with the
// product rounded before the add exactly as the scalar loop rounds it,
// so the result is bit-identical on every machine.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul shape %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reset(a.Rows, b.Cols)
	if a.Cols == 0 || b.Cols == 0 {
		return dst
	}
	for i := 0; i < a.Rows; i++ {
		matMulRow(dst.Row(i), a.Row(i), b)
	}
	return dst
}

// matMulRowFrom is the scalar loop of MatMulInto over output columns
// [lo, len(o)) of one row.
func matMulRowFrom(o, arow []float32, b *Matrix, lo int) {
	if lo >= len(o) {
		return
	}
	o = o[lo:]
	for z, av := range arow {
		if av == 0 {
			continue
		}
		brow := b.Row(z)[lo:]
		brow = brow[:len(o)]
		for j, bv := range brow {
			o[j] += float32(av * bv)
		}
	}
}

// MatMulTransB computes a × bᵀ, the natural layout for QKᵀ where K is
// stored token-major.
func MatMulTransB(a, b *Matrix) *Matrix {
	return MatMulTransBInto(&Matrix{}, a, b)
}

// MatMulTransBInto computes a × bᵀ into dst (reshaped first), returning
// dst — MatMulTransB without the per-call output allocation. Every
// element is written, so dst is not cleared first.
func MatMulTransBInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmulT shape %dx%d × (%dx%d)ᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	dst.Reshape(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		orow := dst.Row(i)
		for j := 0; j < b.Rows; j++ {
			brow := b.Row(j)
			var acc float32
			for z := range arow {
				acc += float32(arow[z] * brow[z])
			}
			orow[j] = acc
		}
	}
	return dst
}

// Scale multiplies every element of m by s in place and returns m.
func (m *Matrix) Scale(s float32) *Matrix {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// Add adds b to m element-wise in place and returns m.
func (m *Matrix) Add(b *Matrix) *Matrix {
	if m.Rows != b.Rows || m.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: add shape %dx%d + %dx%d", m.Rows, m.Cols, b.Rows, b.Cols))
	}
	for i, v := range b.Data {
		m.Data[i] += v
	}
	return m
}

// RandNormal fills a new rows x cols matrix with N(0, stddev²) values from
// the given source. A seeded source makes experiments reproducible.
func RandNormal(rng *rand.Rand, rows, cols int, stddev float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * stddev)
	}
	return m
}

// RandUniform fills a new rows x cols matrix with Uniform[lo, hi) values.
func RandUniform(rng *rand.Rand, rows, cols int, lo, hi float64) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(lo + float64(rng.Float64()*(hi-lo)))
	}
	return m
}

// MaxAbsDiff returns the maximum absolute element-wise difference between
// a and b. It panics on shape mismatch.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	var max float64
	for i := range a.Data {
		d := math.Abs(float64(a.Data[i] - b.Data[i]))
		if d > max {
			max = d
		}
	}
	return max
}

// RelFrobenius returns ‖a−b‖_F / ‖b‖_F, the relative Frobenius-norm error
// of a against reference b. Returns 0 when both are zero.
func RelFrobenius(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: RelFrobenius shape mismatch")
	}
	var num, den float64
	for i := range a.Data {
		d := float64(a.Data[i] - b.Data[i])
		num += float64(d * d)
		den += float64(float64(b.Data[i]) * float64(b.Data[i]))
	}
	if den == 0 {
		if num == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Sqrt(num / den)
}

// MeanAbs returns the mean absolute value of the elements of m, or 0 for
// an empty matrix.
func MeanAbs(m *Matrix) float64 {
	if len(m.Data) == 0 {
		return 0
	}
	var s float64
	for _, v := range m.Data {
		s += math.Abs(float64(v))
	}
	return s / float64(len(m.Data))
}
