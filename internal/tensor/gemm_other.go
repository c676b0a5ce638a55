//go:build !amd64

package tensor

// matMulRow adds arow·b into o with the scalar loop.
func matMulRow(o, arow []float32, b *Matrix) { matMulRowFrom(o, arow, b, 0) }
