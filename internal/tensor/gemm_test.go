package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// matMulScalar is the reference i-z-j loop MatMulInto must reproduce bit
// for bit: one rounded product, then one rounded add, z ascending, zero
// a[i,z] skipped.
func matMulScalar(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		orow := out.Row(i)
		for z, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(z) {
				p := av * bv
				orow[j] += p
			}
		}
	}
	return out
}

// TestMatMulIntoMatchesScalarBits pins the SIMD GEMM against the scalar
// loop on every column class the vector path splits on (below, at and
// past one and four vector widths), on short and prefill-sized row
// counts, on an empty inner dimension, and with A holding exact ±0 that
// must skip, as the masked half of a causal probability matrix does —
// even against a non-finite B row.
func TestMatMulIntoMatchesScalarBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	dst := &Matrix{}
	for _, cols := range []int{1, 8, 31, 32, 33, 64, 96, 128, 130} {
		for _, rows := range []int{0, 1, 7, 394} {
			for _, z := range []int{0, 1, 13, 64} {
				a := RandNormal(rng, rows, z, 1)
				for i := range a.Data {
					switch rng.Intn(4) {
					case 0:
						a.Data[i] = 0
					case 1:
						a.Data[i] = float32(math.Copysign(0, -1))
					}
				}
				b := RandNormal(rng, z, cols, 1)
				if z > 0 {
					// A masked column against a non-finite B row: only
					// skipping the zeros keeps 0·Inf = NaN out.
					for i := 0; i < rows; i++ {
						a.Set(i, 0, 0)
					}
					for j := range b.Row(0) {
						b.Set(0, j, float32(math.Inf(1)))
					}
				}
				want := matMulScalar(a, b)
				got := MatMulInto(dst, a, b)
				if got.Rows != rows || got.Cols != cols {
					t.Fatalf("cols=%d rows=%d z=%d: shape %dx%d", cols, rows, z, got.Rows, got.Cols)
				}
				for k, v := range got.Data {
					if math.Float32bits(v) != math.Float32bits(want.Data[k]) {
						t.Fatalf("cols=%d rows=%d z=%d: element %d = %v, want %v",
							cols, rows, z, k, v, want.Data[k])
					}
				}
			}
		}
	}
}

func BenchmarkMatMulInto(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	a, w := RandNormal(rng, 394, 64, 1), RandNormal(rng, 64, 128, 1)
	dst := &Matrix{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMulInto(dst, a, w)
	}
}
