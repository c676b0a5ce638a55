//go:build amd64

package tensor

import "github.com/hackkv/hack/internal/cpufeat"

// axpyRowsAVX2 accumulates o[j] += a[z]·b[z·ldb+j] for j in [0, n) and
// z ascending over [0, k), skipping every z whose a[z] is ±0 — the
// scalar loop of MatMulInto, eight columns per instruction. Each product
// is rounded (VMULPS) before it is added (VADDPS); nothing is fused, so
// every output element sees exactly the scalar loop's sequence of
// roundings. n must be a positive multiple of 8 and k positive.
//
//go:noescape
func axpyRowsAVX2(o, a, b *float32, k, n, ldb int)

// matMulRow adds arow·b into o: the AVX2 kernel over the widest multiple
// of eight columns, the scalar loop over the rest.
func matMulRow(o, arow []float32, b *Matrix) {
	done := 0
	if cpufeat.AVX2 {
		if done = len(o) &^ 7; done > 0 {
			axpyRowsAVX2(&o[0], &arow[0], &b.Data[0], len(arow), done, b.Cols)
		}
	}
	matMulRowFrom(o, arow, b, done)
}
