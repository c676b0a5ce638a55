package hack

import (
	"fmt"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// The scalar reference kernels: straight-line triple loops with no
// packing, tiling, unrolling or parallelism. They are the semantic
// definition of the homomorphic product — the fast kernels in this
// package must produce bit-identical output (the cross-check tests
// enforce this over a shape grid), and the BENCH_kernels.json speedups
// are measured against them.

// MatMulScalar is the reference implementation of MatMul.
func MatMulScalar(a, b *quant.Tensor, opt Options) (*tensor.Matrix, Ops) {
	checkMatMulShapes(a, b)
	m, z, n := a.Rows, a.Cols, b.Cols
	out := tensor.New(m, n)
	var ops Ops
	if z == 0 {
		return out, ops
	}

	bSums := b.Sums
	if !opt.ReuseSums {
		sums := make([]int32, len(b.Sums))
		recomputeColSumsInto(sums, b)
		bSums = sums
		ops.SumRecomputeOps += int64(z) * int64(n)
	}

	nb := a.NBlocks
	for g := 0; g < nb; g++ {
		lo, hi := a.BlockRange(g)
		blockLen := float32(hi - lo)
		for i := 0; i < m; i++ {
			ma, sa := a.Meta(i, g)
			aSum := float32(a.Sum(i, g))
			aRow := a.Codes[i*z+lo : i*z+hi]
			oRow := out.Row(i)
			for j := 0; j < n; j++ {
				mb, sb := b.Meta(j, g)
				// Integer dot product over the block — the part GPUs
				// accelerate with INT8 tensor cores.
				var acc int32
				for k, av := range aRow {
					acc += int32(av) * int32(b.Codes[(lo+k)*n+j])
				}
				bSum := float32(bSums[j*nb+g])
				// Eq. (4) correction terms.
				oRow[j] += float32(sa*sb*float32(acc)) +
					float32(mb*sa*aSum) +
					float32(ma*sb*bSum) +
					float32(blockLen*ma*mb)
			}
		}
		ops.IntMACs += 2 * int64(m) * int64(hi-lo) * int64(n)
	}
	// Approximation flop count per the §5.2 analysis: 9MN per block pair
	// plus the A row sums (MZ); the B column sums (NZ) are either cached
	// (SE) or counted above as SumRecomputeOps.
	ops.ApproxFlops = int64(nb)*9*int64(m)*int64(n) + int64(m)*int64(z)
	return out, ops
}

// MatMulTransBScalar is the reference implementation of MatMulTransB.
func MatMulTransBScalar(a, bT *quant.Tensor, opt Options) (*tensor.Matrix, Ops) {
	checkMatMulTransBShapes(a, bT)
	m, z, n := a.Rows, a.Cols, bT.Rows
	out := tensor.New(m, n)
	var ops Ops
	if z == 0 {
		return out, ops
	}

	bSums := bT.Sums
	if !opt.ReuseSums {
		sums := make([]int32, len(bT.Sums))
		recomputeRowSumsInto(sums, bT)
		bSums = sums
		ops.SumRecomputeOps += int64(z) * int64(n)
	}

	nb := a.NBlocks
	for g := 0; g < nb; g++ {
		lo, hi := a.BlockRange(g)
		blockLen := float32(hi - lo)
		for i := 0; i < m; i++ {
			ma, sa := a.Meta(i, g)
			aSum := float32(a.Sum(i, g))
			aRow := a.Codes[i*z+lo : i*z+hi]
			oRow := out.Row(i)
			for j := 0; j < n; j++ {
				mb, sb := bT.Meta(j, g)
				bRow := bT.Codes[j*z+lo : j*z+hi]
				var acc int32
				for k, av := range aRow {
					acc += int32(av) * int32(bRow[k])
				}
				bSum := float32(bSums[j*nb+g])
				oRow[j] += float32(sa*sb*float32(acc)) +
					float32(mb*sa*aSum) +
					float32(ma*sb*bSum) +
					float32(blockLen*ma*mb)
			}
		}
		ops.IntMACs += 2 * int64(m) * int64(hi-lo) * int64(n)
	}
	ops.ApproxFlops = int64(nb)*9*int64(m)*int64(n) + int64(m)*int64(z)
	return out, ops
}

// checkMatMulShapes panics on an operand mismatch for A·B.
func checkMatMulShapes(a, b *quant.Tensor) {
	if a.Axis != quant.AlongCols || b.Axis != quant.AlongRows {
		panic(fmt.Sprintf("hack: MatMul needs A along-cols × B along-rows, got %v × %v", a.Axis, b.Axis))
	}
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("hack: inner dims %d != %d", a.Cols, b.Rows))
	}
	if a.Pi != b.Pi {
		panic(fmt.Sprintf("hack: partition sizes %d != %d", a.Pi, b.Pi))
	}
}

// checkMatMulTransBShapes panics on an operand mismatch for A·Bᵀ.
func checkMatMulTransBShapes(a, bT *quant.Tensor) {
	if a.Axis != quant.AlongCols || bT.Axis != quant.AlongCols {
		panic(fmt.Sprintf("hack: MatMulTransB needs both operands along-cols, got %v × %v", a.Axis, bT.Axis))
	}
	if a.Cols != bT.Cols {
		panic(fmt.Sprintf("hack: inner dims %d != %d", a.Cols, bT.Cols))
	}
	if a.Pi != bT.Pi {
		panic(fmt.Sprintf("hack: partition sizes %d != %d", a.Pi, bT.Pi))
	}
}

// recomputeColSumsInto rebuilds the per-(column, block) code sums of an
// along-rows tensor into dst (length len(b.Sums), zeroed here) — the
// work SE avoids.
func recomputeColSumsInto(dst []int32, b *quant.Tensor) {
	for i := range dst {
		dst[i] = 0
	}
	nb := b.NBlocks
	for g := 0; g < nb; g++ {
		lo, hi := b.BlockRange(g)
		for z := lo; z < hi; z++ {
			row := b.Codes[z*b.Cols : (z+1)*b.Cols]
			for j, c := range row {
				dst[j*nb+g] += int32(c)
			}
		}
	}
}

// recomputeRowSumsInto rebuilds the per-(row, block) code sums of an
// along-cols tensor into dst.
func recomputeRowSumsInto(dst []int32, bT *quant.Tensor) {
	nb := bT.NBlocks
	for j := 0; j < bT.Rows; j++ {
		for g := 0; g < nb; g++ {
			lo, hi := bT.BlockRange(g)
			var s int32
			for _, c := range bT.Codes[j*bT.Cols+lo : j*bT.Cols+hi] {
				s += int32(c)
			}
			dst[j*nb+g] = s
		}
	}
}
