// Package cpufeat is the repository's one CPU feature probe: every SIMD
// kernel (the quantized dot products in package hack, the float GEMM in
// package tensor) gates its assembly on the flags here, so a machine
// either runs all of them or none.
package cpufeat
