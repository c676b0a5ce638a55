package hack

import (
	"math/rand"

	hackcore "github.com/hackkv/hack/internal/hack"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// Homomorphic-kernel types re-exported from the internal packages.
type (
	// Matrix is a dense row-major float32 matrix.
	Matrix = tensor.Matrix
	// Quantized is a quantized matrix: INT8-widened codes plus
	// per-partition (min, scale) metadata and the summation-elimination
	// code-sum cache of §5.3.
	Quantized = quant.Tensor
	// QuantConfig parameterizes a quantization pass: code width, the
	// partition size Π, and the rounding mode.
	QuantConfig = quant.Config
	// QuantAxis selects which way partitions run through the matrix.
	QuantAxis = quant.Axis
	// Rounding selects how fractional quantization steps are resolved.
	Rounding = quant.Rounding
	// Ops tallies the work performed by a homomorphic multiplication,
	// split the way the paper's cost analysis splits it.
	Ops = hackcore.Ops
	// MatMulOptions control the homomorphic multiplication; see
	// DefaultMatMulOptions.
	MatMulOptions = hackcore.Options
)

// Quantization-axis and rounding constants.
const (
	// AlongCols partitions each row along the column axis — the Q and K
	// layout (partitions along the head dimension, §5.3).
	AlongCols = quant.AlongCols
	// AlongRows partitions each column along the row axis — the V
	// layout (partitions along the growing sequence dimension).
	AlongRows = quant.AlongRows
	// StochasticRounding makes the quantization error zero-mean (§5.2).
	StochasticRounding = quant.StochasticRounding
	// NearestRounding rounds deterministically to the nearest integer.
	NearestRounding = quant.NearestRounding
)

// Quantize encodes m along the given axis with HACK's asymmetric b-bit
// stochastic quantizer (§5.2): each partition of Π elements stores its
// minimum and scale in FP16 and each value as an unsigned code.
func Quantize(m *Matrix, axis QuantAxis, cfg QuantConfig) (*Quantized, error) {
	return quant.Quantize(m, axis, cfg)
}

// QuantizeInto is Quantize reusing t's storage when it has capacity
// (t may be nil); it returns the re-sliced tensor. Per-token serving
// loops quantize into the same tensor every step without allocating.
func QuantizeInto(t *Quantized, m *Matrix, axis QuantAxis, cfg QuantConfig) (*Quantized, error) {
	return quant.QuantizeInto(t, m, axis, cfg)
}

// DefaultMatMulOptions enables every HACK optimization (summation
// elimination on) with automatic kernel parallelism. Set
// MatMulOptions.Parallelism to bound how many workers one
// multiplication splits its output columns across (1 = serial); results
// are bit-identical at every setting.
func DefaultMatMulOptions() MatMulOptions { return hackcore.DefaultOptions() }

// MatMul computes the homomorphic-quantized product of a (M×Z, quantized
// along columns) and b (Z×N, quantized along rows) per Eq. (4): the
// integer product of the codes plus per-partition correction terms,
// never dequantizing either operand. It returns the approximated
// real-valued product and the op tally.
func MatMul(a, b *Quantized, opt MatMulOptions) (*Matrix, Ops) {
	return hackcore.MatMul(a, b, opt)
}

// MatMulInto is MatMul with a caller-supplied destination: dst is
// reshaped (reusing its backing array when it has capacity) and
// overwritten with the product. Serving loops reuse one destination per
// stream so the per-token hot path stops allocating.
func MatMulInto(dst *Matrix, a, b *Quantized, opt MatMulOptions) Ops {
	return hackcore.MatMulInto(dst, a, b, opt)
}

// MatMulTransB computes the homomorphic product A·Bᵀ where bT holds B
// row-major quantized along columns — the natural layout for Q·Kᵀ with K
// stored token-major.
func MatMulTransB(a, bT *Quantized, opt MatMulOptions) (*Matrix, Ops) {
	return hackcore.MatMulTransB(a, bT, opt)
}

// MatMulTransBInto is MatMulTransB with a caller-supplied destination,
// reshaped and overwritten like MatMulInto.
func MatMulTransBInto(dst *Matrix, a, bT *Quantized, opt MatMulOptions) Ops {
	return hackcore.MatMulTransBInto(dst, a, bT, opt)
}

// MatMulScalar and MatMulTransBScalar are the retained straight-line
// reference kernels: no packing, tiling, SIMD or parallelism. They define
// the semantics the fast kernels are validated against bit for bit, and
// they are the baseline the kernel microbenchmarks (BENCH_kernels.json)
// measure speedups over.

// MatMulScalar is the scalar reference implementation of MatMul.
func MatMulScalar(a, b *Quantized, opt MatMulOptions) (*Matrix, Ops) {
	return hackcore.MatMulScalar(a, b, opt)
}

// MatMulTransBScalar is the scalar reference implementation of
// MatMulTransB.
func MatMulTransBScalar(a, bT *Quantized, opt MatMulOptions) (*Matrix, Ops) {
	return hackcore.MatMulTransBScalar(a, bT, opt)
}

// DequantKVOps returns the per-head floating-point cost of dequantizing
// an L-token KV cache — the per-iteration work the baselines pay and
// HACK eliminates (§5.3).
func DequantKVOps(headDim, l int) int64 { return hackcore.DequantKVOps(headDim, l) }

// DecodeApproxOpsSE returns the per-head cost of one decode step's
// Eq. (4) approximation with summation elimination.
func DecodeApproxOpsSE(headDim, l int) int64 { return hackcore.DecodeApproxOpsSE(headDim, l) }

// DecodeApproxOps returns the per-head approximation cost without
// summation elimination (the §7.4 ablation).
func DecodeApproxOps(headDim, l int) int64 { return hackcore.DecodeApproxOps(headDim, l) }

// Matrix constructors and comparison helpers for working with the
// kernel.

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.New(rows, cols) }

// MatrixFromSlice wraps row-major data (not copied) as a matrix.
func MatrixFromSlice(rows, cols int, data []float32) *Matrix {
	return tensor.FromSlice(rows, cols, data)
}

// RandNormal fills a rows×cols matrix with N(0, stddev²) draws.
func RandNormal(rng *rand.Rand, rows, cols int, stddev float64) *Matrix {
	return tensor.RandNormal(rng, rows, cols, stddev)
}

// ExactMatMul is the float32 reference product A·B.
func ExactMatMul(a, b *Matrix) *Matrix { return tensor.MatMul(a, b) }

// ExactMatMulTransB is the float32 reference product A·Bᵀ.
func ExactMatMulTransB(a, b *Matrix) *Matrix { return tensor.MatMulTransB(a, b) }

// MaxAbsDiff returns the largest element-wise absolute difference.
func MaxAbsDiff(a, b *Matrix) float64 { return tensor.MaxAbsDiff(a, b) }

// RelError returns ‖a−b‖_F / ‖b‖_F, the relative Frobenius error.
func RelError(a, b *Matrix) float64 { return tensor.RelFrobenius(a, b) }
