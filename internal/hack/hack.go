// Package hack implements the paper's primary contribution: homomorphic
// quantization for matrix multiplication (§5.2, Eq. 4).
//
// For C = A·B with A and B quantized per partition (min m, scale s), the
// integer product C′ = A′·B′ is computed directly on the quantized codes
// — on GPUs this runs on INT8 tensor cores; here it runs on uint8 codes
// with int32 accumulation — and is then transformed into an approximation
// of C:
//
//	Σ_z a_iz·b_zj ≈ s_ai·s_bj·Σ_z a′_iz·b′_zj   (quantized matmul)
//	             + m_bj·s_ai·Σ_z a′_iz          (cached row sums of A′)
//	             + m_ai·s_bj·Σ_z b′_zj          (cached col sums of B′ — SE)
//	             + Z·m_ai·m_bj
//
// applied per partition block (Fig. 6b) and summed across blocks. The
// inputs are never dequantized; that is the entire point.
//
// Two implementations coexist. MatMulScalar/MatMulTransBScalar (scalar.go)
// are the straight-line reference kernels. MatMul/MatMulTransB are the
// fast kernels: B's block codes are packed once per call into contiguous
// per-column panels (fixing the column-strided walk), the per-block
// (min, scale, Σ) metadata is gathered into block-major arrays, the i/j
// loops are tiled for cache reuse, the uint8×uint8→int32 dot product is
// unrolled eight wide, and independent output column ranges run in
// parallel on a bounded worker pool sized like the sweep pool
// (Options.Parallelism).
// Because every output element still accumulates its per-block terms in
// the same order with the same float expression, the fast kernels are
// bit-identical to the scalar reference at every parallelism level — the
// property the deterministic experiment goldens rely on.
//
// The package also exposes the op-count formulas of §5.2/§5.3 used by the
// performance model, and an Ops accumulator that the numeric kernels fill
// in so benchmarks can cross-check the analytic counts.
package hack

import (
	"sync"

	"github.com/hackkv/hack/internal/cpufeat"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/sweeprun"
	"github.com/hackkv/hack/internal/tensor"
)

// Options control the homomorphic multiplication.
type Options struct {
	// ReuseSums applies summation elimination (§5.3): the per-partition
	// integer column sums Σ b′ cached on the quantized tensor are used
	// directly. When false (the HACK/SE ablation) the sums are
	// recomputed from the codes on every call and charged to Ops.
	ReuseSums bool
	// Parallelism bounds the worker goroutines one multiplication may
	// fan out across its output columns: 0 picks one worker per CPU (the
	// same sizing as the sweep pool), 1 — or any negative value — forces
	// the serial path, and n > 1 caps the fan-out at n (see Workers).
	// Small products always run serially, and the result is
	// bit-identical at every setting. A product never splits its rows:
	// attention's prefill fans out over query-row tiles instead and
	// calls each tile's products with Parallelism 1.
	Parallelism int
}

// DefaultOptions enables every HACK optimization.
func DefaultOptions() Options { return Options{ReuseSums: true} }

// Ops tallies the work performed by a homomorphic multiplication, split
// the way the paper's cost analysis splits it.
type Ops struct {
	// IntMACs counts integer multiply-accumulates in the quantized
	// matmul C′ = A′·B′ (2·M·Z·N operations counting mul+add).
	IntMACs int64
	// ApproxFlops counts floating-point operations in the Eq. (4)
	// correction terms.
	ApproxFlops int64
	// SumRecomputeOps counts integer additions spent recomputing Σ b′
	// when summation elimination is disabled.
	SumRecomputeOps int64
}

// Add accumulates o2 into o.
func (o *Ops) Add(o2 Ops) {
	o.IntMACs += o2.IntMACs
	o.ApproxFlops += o2.ApproxFlops
	o.SumRecomputeOps += o2.SumRecomputeOps
}

// tileJ is the output-column tile width: a panel tile (tileJ × Π codes)
// stays resident in L1 while successive A rows stream against it.
const tileJ = 64

// parallelMinMACs is the work floor (M·Z·N) below which a multiplication
// never fans out: goroutine startup would cost more than it saves on
// decode-sized operands from short sequences.
const parallelMinMACs = 128 << 10

// kernelScratch holds the per-call packing buffers, recycled through a
// sync.Pool so steady-state multiplications allocate nothing.
type kernelScratch struct {
	panel      []uint8   // B codes packed into per-column contiguous panels
	mb, sb, bs []float32 // block-major min / scale / Σ-as-float32 of B
	sums       []int32   // recomputed Σ b′ for the no-SE ablation
	accs       []int32   // per-column integer accumulators (sweep kernel)
}

var scratchPool = sync.Pool{New: func() any { return new(kernelScratch) }}

// Workers resolves a Parallelism knob (Options.Parallelism) to a worker
// count: 0 is one worker per CPU (the sweep pool's sizing), 1 or any
// negative value is 1, and n > 1 is n capped at the CPU count.
func Workers(parallelism int) int {
	if parallelism == 1 || parallelism < 0 {
		return 1 // explicit serial; negative is treated as "no fan-out"
	}
	w := sweeprun.DefaultWorkers()
	if parallelism > 1 && parallelism < w {
		w = parallelism
	}
	return w
}

// workersFor resolves the Parallelism knob against the work size.
func workersFor(parallelism int, m, z, n int) int {
	if int64(m)*int64(z)*int64(n) < parallelMinMACs {
		return 1
	}
	return Workers(parallelism)
}

// maddMode selects the dot-product implementation for one multiplication.
type maddMode int

const (
	maddOff     maddMode = iota // pure-Go unrolled dot
	maddBSigned                 // AVX2, B codes in the signed lane
	maddASigned                 // AVX2, A codes in the signed lane
)

// maddFor picks the dot path: the AVX2 VPMADDUBSW kernel needs one
// operand whose codes fit 6 bits in the signed lane (see dot_amd64.go);
// the other side may use the full 8. Results are bit-identical on every
// path.
func maddFor(aBits, bBits int) maddMode {
	if !cpufeat.AVX2 {
		return maddOff
	}
	if bBits <= 6 {
		return maddBSigned
	}
	if aBits <= 6 {
		return maddASigned
	}
	return maddOff
}

// dot computes the block dot product under the selected mode.
func dot(mode maddMode, aRow, bRow []uint8) int32 {
	switch mode {
	case maddBSigned:
		return dotMADD(aRow, bRow)
	case maddASigned:
		return dotMADD(bRow, aRow)
	default:
		return dotU8(aRow, bRow)
	}
}

// dotU8 returns Σ a[k]·b[k] over uint8 codes with int32 accumulation,
// unrolled eight wide into four independent accumulators so the compiler
// can keep the adds off the critical path (and vectorize where it can).
// Integer addition is associative, so the result is exact regardless of
// the accumulation order.
func dotU8(a, b []uint8) int32 {
	b = b[:len(a)] // bounds-check hint
	var s0, s1, s2, s3 int32
	k := 0
	for ; k+8 <= len(a); k += 8 {
		s0 += int32(a[k])*int32(b[k]) + int32(a[k+4])*int32(b[k+4])
		s1 += int32(a[k+1])*int32(b[k+1]) + int32(a[k+5])*int32(b[k+5])
		s2 += int32(a[k+2])*int32(b[k+2]) + int32(a[k+6])*int32(b[k+6])
		s3 += int32(a[k+3])*int32(b[k+3]) + int32(a[k+7])*int32(b[k+7])
	}
	for ; k < len(a); k++ {
		s0 += int32(a[k]) * int32(b[k])
	}
	return s0 + s1 + s2 + s3
}

// packMeta gathers B's per-(vector, block) metadata — laid out
// vector-major on the tensor — into block-major arrays (index g·n + j),
// so the generic tile's inner j loop reads it contiguously. The Σ sums
// are converted to float32 here, exactly the conversion the scalar
// kernel performs per element.
func packMeta(ks *kernelScratch, min, scale []float32, sums []int32, n, nb int) {
	ks.mb = tensor.Grow(ks.mb, nb*n)
	ks.sb = tensor.Grow(ks.sb, nb*n)
	ks.bs = tensor.Grow(ks.bs, nb*n)
	for j := 0; j < n; j++ {
		base := j * nb
		for g := 0; g < nb; g++ {
			ks.mb[g*n+j] = min[base+g]
			ks.sb[g*n+j] = scale[base+g]
			ks.bs[g*n+j] = float32(sums[base+g])
		}
	}
}

// maxBlockedNB caps the per-row block count the single-call AVX2 block
// kernel handles (its accumulator array lives on the tile's stack).
const maxBlockedNB = 64

// verifyRowsMax bounds the row count treated as a multi-row shape
// (column-outer loop order in blockedTile): beyond it the query rows no
// longer fit comfortably in L1 and the row-outer prefill order wins.
const verifyRowsMax = 32

// packMinRows is the output-row count below which MatMul skips the
// transposed pack of B: packing costs one O(Z·N) pass, so it must be
// amortized over at least a few rows to win over the row-major sweep.
const packMinRows = 8

// packAmortRows scales that threshold with the inner dimension: the
// pack is a cache-hostile column-scatter over the whole Z×N panel, so
// for long inner dimensions (a short resumed suffix's P·V over a deep
// cached prefix) it dwarfs the SIMD saving unless enough output rows
// share it. Empirically the pack pays for itself at roughly one output
// row per 128 columns of Z: an 8-row product over Z=2048 runs faster
// swept, while a 32-row prefill over Z=256 is ~7× faster packed.
const packAmortRows = 128

// sweepRows computes an M-row (M < packMinRows) product against B in its
// original row-major layout: for each partition, the inner rows of B
// stream contiguously while every output column accumulates in
// ks.accs — no packing pass, no strided reads. Under AVX2 the rows go
// through sweepPairs two at a time over the leading multiple of 32
// columns; the scalar loop is the reference and covers what the kernel
// leaves, the odd last row of a partition and the columns past it.
// Integer accumulation is exact and each output element applies its
// Eq. (4) correction in ascending block order with the scalar kernel's
// expression, so the result is bit-identical to the reference. Under a
// causal mask row i stops at its last live partition. Runs serially:
// decode-shaped callers parallelize across heads, not within this
// product.
func sweepRows(dst *tensor.Matrix, a, b *quant.Tensor, ks *kernelScratch, bSums []int32, mk mask) {
	m, z, n := a.Rows, a.Cols, b.Cols
	nb := a.NBlocks
	ks.accs = tensor.Grow(ks.accs, n)
	accs := ks.accs[:n]
	mode := maddFor(a.Bits, b.Bits)
	cols, run := 0, 0 // the columns sweepPairs covers, and its uint16 run
	if mode != maddOff {
		cols, run = n&^31, pairRun(a.Bits, b.Bits)
	}
	for i := 0; i < m; i++ {
		aRow := a.Codes[i*z : (i+1)*z]
		oRow := dst.Row(i)
		for g, live := 0, mk.blocks(i, a.Pi, z); g < live; g++ {
			lo, hi := a.BlockRange(g)
			blockLen := float32(hi - lo)
			clear(accs)
			paired := lo // rows [lo, paired) went through sweepPairs
			if pairs := (hi - lo) / 2; cols > 0 && pairs > 0 {
				sweepPairs(mode, &aRow[lo], &b.Codes[lo*n], n, cols, pairs, run, &accs[0])
				paired = lo + 2*pairs
			}
			from := lo // rows before paired lack only columns past cols
			if cols == n {
				from = paired
			}
			for k := from; k < hi; k++ {
				av := int32(aRow[k])
				if av == 0 {
					continue
				}
				j0 := cols
				if k >= paired {
					j0 = 0
				}
				acc := accs[j0:]
				for j, c := range b.Codes[k*n+j0 : (k+1)*n] {
					acc[j] += av * int32(c)
				}
			}
			ma, sa := a.Meta(i, g)
			aSum := float32(a.Sum(i, g))
			for j := 0; j < n; j++ {
				mb, sb := b.Min[j*nb+g], b.Scale[j*nb+g]
				bSum := float32(bSums[j*nb+g])
				// Eq. (4) correction terms, scalar expression and order.
				oRow[j] += float32(sa*sb*float32(accs[j])) +
					float32(mb*sa*aSum) +
					float32(ma*sb*bSum) +
					float32(blockLen*ma*mb)
			}
		}
	}
}

// sweepPairs dispatches the paired-row P·V kernel on the MADD mode: the
// operand whose codes fit 6 bits rides in VPMADDUBSW's signed lane.
func sweepPairs(mode maddMode, p, v *uint8, stride, cols, pairs, run int, acc *int32) {
	if mode == maddBSigned {
		sweepPairsV(p, v, stride, cols, pairs, run, acc)
	} else {
		sweepPairsP(p, v, stride, cols, pairs, run, acc)
	}
}

// pairRun is how many row-pair sums sweepPairs may add in a uint16 lane
// before widening: each is at most 2·(2^aBits−1)·(2^bBits−1), and their
// total must stay below 2¹⁶. Under either MADD mode one side fits 6 bits,
// so the run is at least 2 (2·255·63 = 32130).
func pairRun(aBits, bBits int) int {
	return 0xFFFF / (2 * (1<<aBits - 1) * (1<<bBits - 1))
}

// MatMul computes the homomorphic-quantized product of a (M×Z, quantized
// along columns) and b (Z×N, quantized along rows). The partition sizes
// must match so the blocks of the two operands align on the inner
// dimension. It returns the approximated real-valued product and the op
// tally.
func MatMul(a, b *quant.Tensor, opt Options) (*tensor.Matrix, Ops) {
	out := &tensor.Matrix{}
	ops := MatMulInto(out, a, b, opt)
	return out, ops
}

// MatMulInto is MatMul with a caller-supplied destination: dst is
// reshaped to M×N (reusing its backing array when possible) and
// overwritten with the product. It is the allocation-free path the
// attention decode loop runs every token.
//
// Tall products (M ≥ packMinRows) pack B's codes once per call into a
// transposed copy — per-output-column contiguous runs, fixing the scalar
// kernel's column-strided inner loop — after which the multiplication
// shares the Q·Kᵀ kernel's tiles; the O(Z·N) packing pass amortizes
// across the M output rows. Short products (the decode P·V step, M = 1)
// skip packing entirely and sweep B row-major instead, accumulating all
// N output columns per inner row — for those shapes a per-call repack
// would cost as much as the multiply itself.
func MatMulInto(dst *tensor.Matrix, a, b *quant.Tensor, opt Options) Ops {
	return CausalMatMulInto(dst, a, b, -1, opt)
}

// CausalMatMulInto is MatMulInto for the P·V product of a causal
// prefill: row i of a holds query position offset+i's probabilities over
// key positions, zero past column i+offset (tensor.CausalSoftmax,
// quantized by quant.QuantizeCausalInto), so row i's product stops at
// the last partition holding a live column. A skipped partition carries
// zero codes and metadata; its Eq. (4) terms are ±0, which cannot change
// an accumulator that starts at +0 (round-to-nearest never yields −0
// from a sum that is not −0), so the result is bit-identical to
// MatMulInto on the same operands. A negative offset computes every row
// whole. Ops counts the partitions actually multiplied.
func CausalMatMulInto(dst *tensor.Matrix, a, b *quant.Tensor, offset int, opt Options) Ops {
	checkMatMulShapes(a, b)
	m, z, n := a.Rows, a.Cols, b.Cols
	dst.Reset(m, n)
	var ops Ops
	if z == 0 {
		return ops
	}
	mk := mask{off: offset, inner: true}

	ks := scratchPool.Get().(*kernelScratch)
	defer scratchPool.Put(ks)

	bSums := b.Sums
	if !opt.ReuseSums {
		ks.sums = tensor.Grow(ks.sums, len(b.Sums))
		recomputeColSumsInto(ks.sums, b)
		bSums = ks.sums
		ops.SumRecomputeOps += int64(z) * int64(n)
	}

	if m < packMinRows || m*packAmortRows < z {
		sweepRows(dst, a, b, ks, bSums, mk)
	} else {
		// Pack B transposed: column j's codes become the contiguous run
		// ks.panel[j·z : (j+1)·z]. Reads stream row-major.
		ks.panel = tensor.Grow(ks.panel, n*z)
		for zi := 0; zi < z; zi++ {
			row := b.Codes[zi*n : (zi+1)*n]
			for j, c := range row {
				ks.panel[j*z+zi] = c
			}
		}
		runTiles(dst, a, ks, ks.panel, b.Min, b.Scale, bSums, b.Bits, opt, mk, m, z, n)
	}
	mk.count(&ops, a.Pi, m, z, n)
	return ops
}

// MatMulTransB computes the homomorphic product A·Bᵀ where bT holds B
// row-major with shape N×Z quantized along columns — the natural layout
// for Q·Kᵀ with K stored token-major. Partition blocks align on the
// shared inner dimension Z.
func MatMulTransB(a, bT *quant.Tensor, opt Options) (*tensor.Matrix, Ops) {
	out := &tensor.Matrix{}
	ops := MatMulTransBInto(out, a, bT, opt)
	return out, ops
}

// MatMulTransBInto is MatMulTransB with a caller-supplied destination,
// reshaped to M×N and overwritten. bT's rows are already contiguous along
// the inner dimension, so no packing is needed — the codes feed the
// shared tiles directly.
func MatMulTransBInto(dst *tensor.Matrix, a, bT *quant.Tensor, opt Options) Ops {
	return CausalMatMulTransBInto(dst, a, bT, -1, opt)
}

// CausalMatMulTransBInto is MatMulTransBInto for the Q·Kᵀ scores of a
// causal prefill: row i is query position offset+i, and only its live
// key columns 0..i+offset (tensor.LiveCols) are computed; every column
// past them stays 0. A negative offset computes every row whole (a
// decode step attends to everything). Ops counts the cells computed.
func CausalMatMulTransBInto(dst *tensor.Matrix, a, bT *quant.Tensor, offset int, opt Options) Ops {
	checkMatMulTransBShapes(a, bT)
	m, z, n := a.Rows, a.Cols, bT.Rows
	dst.Reset(m, n)
	var ops Ops
	if z == 0 {
		return ops
	}
	mk := mask{off: offset}

	ks := scratchPool.Get().(*kernelScratch)
	defer scratchPool.Put(ks)

	bSums := bT.Sums
	if !opt.ReuseSums {
		ks.sums = tensor.Grow(ks.sums, len(bT.Sums))
		recomputeRowSumsInto(ks.sums, bT)
		bSums = ks.sums
		ops.SumRecomputeOps += int64(z) * int64(n)
	}

	runTiles(dst, a, ks, bT.Codes, bT.Min, bT.Scale, bSums, bT.Bits, opt, mk, m, z, n)
	mk.count(&ops, a.Pi, m, z, n)
	return ops
}

// mask is a product's causal clamp. Row i of a masked product is query
// position off+i: a Q·Kᵀ product computes its output columns 0..i+off
// only, an inner (P·V) product the partitions of A holding columns
// 0..i+off only. off < 0 leaves every row whole.
type mask struct {
	off   int
	inner bool
}

// cols returns the end of row i's live output columns out of n.
func (mk mask) cols(i, n int) int {
	if mk.inner {
		return n
	}
	return tensor.LiveCols(i, mk.off, n)
}

// blocks returns how many of row i's inner partitions of pi (covering
// z) hold a live column.
func (mk mask) blocks(i, pi, z int) int {
	live := z
	if mk.inner {
		live = tensor.LiveCols(i, mk.off, z)
	}
	return (live + pi - 1) / pi
}

// count tallies the work of an M×Z by Z×N product under the mask, per
// the §5.2 analysis: per output cell, 2 integer ops per live inner
// element and 9 approximation flops per live partition pair, plus the A
// row sums (M·Z unmasked); the B sums are either cached (SE) or counted
// as SumRecomputeOps by the caller.
func (mk mask) count(ops *Ops, pi, m, z, n int) {
	for i := 0; i < m; i++ {
		cells := int64(mk.cols(i, n))
		g := mk.blocks(i, pi, z)
		inner := int64(min(z, g*pi))
		ops.IntMACs += 2 * inner * cells
		ops.ApproxFlops += 9*int64(g)*cells + inner
	}
}

// runTiles executes the shared kernel body over output tiles. bCodes
// holds B with per-output-column contiguous inner runs (bCodes[j·z+k]),
// bMin/bScale/bSums its vector-major metadata. Two inner kernels exist:
// the AVX2 block kernel computes every partition dot of a row pair in
// one call (eligible when every partition has the same length, a
// multiple of 32: full partitions, or one partial partition when z < Π,
// the decode Q·Kᵀ of a head narrower than Π), and the generic tile
// handles everything else.
// Both accumulate each output element's per-block terms in ascending
// block order with the scalar kernel's exact float expression, so any
// tiling and either kernel is bit-identical to the reference. A fanned-out
// product splits its output columns across the workers; rows are not
// split here, because a prefill already tiles its query rows
// (attention's prefill tiler) and calls each tile's products serially.
func runTiles(dst *tensor.Matrix, a *quant.Tensor, ks *kernelScratch, bCodes []uint8,
	bMin, bScale []float32, bSums []int32, bBits int, opt Options, mk mask, m, z, n int) {
	nb := a.NBlocks
	mode := maddFor(a.Bits, bBits)
	bl := blockedLen(a)
	blocked := mode != maddOff && bl%32 == 0 && nb*bl == z && nb <= maxBlockedNB
	if !blocked {
		packMeta(ks, bMin, bScale, bSums, n, nb)
	}
	workers := workersFor(opt.Parallelism, m, z, n)
	if workers == 1 {
		// Direct calls: the serial hot path must not allocate a closure.
		if blocked {
			blockedTile(dst, a, bCodes, bMin, bScale, bSums, mode, mk, 0, m, 0, n)
		} else {
			genericTile(dst, a, ks, bCodes, mode, mk, 0, m, 0, n)
		}
		return
	}
	sweeprun.ParallelFor(n, workers, func(clo, chi int) {
		if blocked {
			blockedTile(dst, a, bCodes, bMin, bScale, bSums, mode, mk, 0, m, clo, chi)
		} else {
			genericTile(dst, a, ks, bCodes, mode, mk, 0, m, clo, chi)
		}
	})
}

// blockedLen is the length of every partition of a row of a when they are
// all equal, as blockedTile requires: Π, or z for a row shorter than one
// partition.
func blockedLen(a *quant.Tensor) int { return min(a.Pi, a.Cols) }

// blockedTile computes output rows [rlo, rhi) × columns [clo, chi) with
// one MADD kernel call covering all of a row's live partitions for eight
// columns at once (dotU8MADDCols8, B signed) or for one column
// (dotU8MADDBlocks), over the row's live columns.
func blockedTile(dst *tensor.Matrix, a *quant.Tensor, bCodes []uint8,
	bMin, bScale []float32, bSums []int32, mode maddMode, mk mask, rlo, rhi, clo, chi int) {
	z := a.Cols
	nb := a.NBlocks
	pi := a.Pi
	bl := blockedLen(a)
	blockLen := float32(bl)
	var accs [8 * maxBlockedNB]int32
	// A row of one partition takes oneBlockCols at any row count: its
	// vector corrections beat the row groups' scalar ones.
	onePart := nb == 1 && mode == maddBSigned
	if rhi-rlo > 1 && rhi-rlo <= verifyRowsMax && !onePart {
		// Multi-row shape: a handful of query rows against a long cache
		// (a short prefill or resumed suffix). The rows are
		// processed in register-blocked groups of eight, then four, then
		// singles; each group sweeps the columns in buffered tiles
		// (verifyTile) so every loaded cache row is scored against the
		// whole resident group and the float corrections run with the
		// column index innermost. Each output
		// element accumulates its per-block terms in the same order and
		// expression as the row-outer path, so both are bit-identical to
		// the scalar reference.
		i := rlo
		for i < rhi {
			gw := 1
			if mode == maddBSigned {
				switch {
				case rhi-i >= 8:
					gw = 8
				case rhi-i >= 4:
					gw = 4
				}
			}
			verifyTile(dst, a, bCodes, bMin, bScale, bSums, mode, mk, i, gw, clo, chi)
			i += gw
		}
		return
	}
	for i := rlo; i < rhi; i++ {
		aRow := a.Codes[i*z : (i+1)*z]
		aMin := a.Min[i*nb : (i+1)*nb]
		aScale := a.Scale[i*nb : (i+1)*nb]
		aSums := a.Sums[i*nb : (i+1)*nb]
		oRow := dst.Row(i)
		live := mk.blocks(i, pi, z)
		j, jhi := clo, min(chi, mk.cols(i, dst.Cols))
		if onePart && live == 1 {
			k := [4]float32{aScale[0], aMin[0], float32(aSums[0]), blockLen * aMin[0]}
			j = oneBlockCols(oRow, aRow, bCodes, bMin, bScale, bSums, &k, j, jhi)
		}
		for j < jhi {
			// w columns per kernel call; accs[g·w+c] is column j+c's
			// block-g dot.
			w := 1
			if mode == maddBSigned && jhi-j >= 8 {
				w = 8
				dotU8MADDCols8(&aRow[0], &bCodes[j*z], z, live, bl, &accs[0])
			} else if bRow := bCodes[j*z : (j+1)*z]; mode == maddBSigned {
				dotU8MADDBlocks(&aRow[0], &bRow[0], live, bl, &accs[0])
			} else {
				dotU8MADDBlocks(&bRow[0], &aRow[0], live, bl, &accs[0])
			}
			for c := 0; c < w; c++ {
				jc := j + c
				bMinJ := bMin[jc*nb : (jc+1)*nb]
				bScaleJ := bScale[jc*nb : (jc+1)*nb]
				bSumJ := bSums[jc*nb : (jc+1)*nb]
				v := oRow[jc]
				for g := 0; g < live; g++ {
					ma, sa := aMin[g], aScale[g]
					aSum := float32(aSums[g])
					mb, sb := bMinJ[g], bScaleJ[g]
					bSum := float32(bSumJ[g])
					// Eq. (4) correction terms, in the scalar kernel's exact
					// expression and block order.
					v += float32(sa*sb*float32(accs[g*w+c])) +
						float32(mb*sa*aSum) +
						float32(ma*sb*bSum) +
						float32(blockLen*ma*mb)
				}
				oRow[jc] = v
			}
			j += w
		}
	}
}

// oneBlockCols is blockedTile's row loop when a row is one partition
// (nb = 1, so the corrections have no block order to keep): B's
// metadata is then contiguous across columns, and columns [j, jhi) run
// in multiples of eight through dotU8MADDCols8 and the vector
// correction correctCols. k is the row's {sa, ma, aSum, blockLen·ma}.
// It returns the first column left for the caller's per-column tail.
func oneBlockCols(oRow []float32, aRow, bCodes []uint8, bMin, bScale []float32, bSums []int32,
	k *[4]float32, j, jhi int) int {
	z := len(aRow)
	var dots [256]int32
	for jhi-j >= 8 {
		w := min(len(dots), (jhi-j)&^7)
		for c := 0; c < w; c += 8 {
			dotU8MADDCols8(&aRow[0], &bCodes[(j+c)*z], z, 1, z, &dots[c])
		}
		correctCols(&oRow[j], &dots[0], &bMin[j], &bScale[j], &bSums[j], w, k)
		j += w
	}
	return j
}

// verifyTileBuf is the per-call dot buffer of verifyTile in int32s:
// large enough to keep a useful run of columns per tile (≥ 8 columns at
// the widest nb·group product of 64·8) while staying a 16 KiB stack
// frame.
const verifyTileBuf = 4096

// verifyTile computes one register-blocked row group [i0, i0+gw) of a
// multi-row product across columns [clo, chi). Columns are processed
// in buffered tiles: first the integer dots of the whole tile land in
// buf — one dotU8MADDBlocks8/4 call per column scores every row of the
// group against that cache row while its codes sit in registers — then
// the Eq. (4) corrections sweep the tile row-major, column innermost,
// so the float pass streams oRow and the per-column metadata
// contiguously instead of re-deriving them per element. The per-element
// correction keeps the scalar kernel's exact expression and ascending
// block order, so the result stays bit-identical to the reference.
//
// Under a causal mask the group computes the live region of its last
// (longest) row: the earlier rows' extra inner partitions are all-zero
// (±0 terms, exact), and their extra Q·Kᵀ columns are cleared after.
func verifyTile(dst *tensor.Matrix, a *quant.Tensor, bCodes []uint8,
	bMin, bScale []float32, bSums []int32, mode maddMode, mk mask, i0, gw, clo, chi int) {
	z := a.Cols
	nb := a.NBlocks
	pi := a.Pi
	bl := blockedLen(a)
	blockLen := float32(bl)
	last := i0 + gw - 1
	live := mk.blocks(last, pi, z)
	chi = min(chi, mk.cols(last, dst.Cols))
	var buf [verifyTileBuf]int32
	stride := live * gw // one column's dots in buf
	tj := verifyTileBuf / stride
	var oRows [8][]float32
	var aMinR, aScaleR [8][]float32
	var aSumsR [8][]int32
	for r := 0; r < gw; r++ {
		ir := i0 + r
		oRows[r] = dst.Row(ir)
		aMinR[r] = a.Min[ir*nb : (ir+1)*nb]
		aScaleR[r] = a.Scale[ir*nb : (ir+1)*nb]
		aSumsR[r] = a.Sums[ir*nb : (ir+1)*nb]
	}
	for j0 := clo; j0 < chi; j0 += tj {
		j1 := j0 + tj
		if j1 > chi {
			j1 = chi
		}
		for jj, j := 0, j0; j < j1; jj, j = jj+1, j+1 {
			bRow := bCodes[j*z : (j+1)*z]
			out := &buf[jj*stride]
			switch gw {
			case 8:
				dotU8MADDBlocks8(&a.Codes[i0*z], z, &bRow[0], live, bl, out)
			case 4:
				dotU8MADDBlocks4(&a.Codes[i0*z], &a.Codes[(i0+1)*z],
					&a.Codes[(i0+2)*z], &a.Codes[(i0+3)*z], &bRow[0], live, bl, out)
			default:
				aRow := a.Codes[i0*z : (i0+1)*z]
				if mode == maddBSigned {
					dotU8MADDBlocks(&aRow[0], &bRow[0], live, bl, out)
				} else {
					dotU8MADDBlocks(&bRow[0], &aRow[0], live, bl, out)
				}
			}
		}
		// Corrections, column-outer with the rows innermost: the dots of
		// one (column, block) pair sit contiguously in buf, the column's
		// metadata loads once for the whole group, and each element still
		// receives its per-block terms in ascending block order with the
		// scalar expression, so bit-identity with the reference holds.
		for jj, j := 0, j0; j < j1; jj, j = jj+1, j+1 {
			base := jj * stride
			for g := 0; g < live; g++ {
				mb, sb := bMin[j*nb+g], bScale[j*nb+g]
				bSum := float32(bSums[j*nb+g])
				dots := buf[base+g*gw : base+(g+1)*gw]
				for r := 0; r < gw; r++ {
					ma, sa := aMinR[r][g], aScaleR[r][g]
					aSum := float32(aSumsR[r][g])
					oRows[r][j] += float32(sa*sb*float32(dots[r])) +
						float32(mb*sa*aSum) +
						float32(ma*sb*bSum) +
						float32(blockLen*ma*mb)
				}
			}
		}
	}
	for r := 0; r < gw; r++ {
		if lo := max(mk.cols(i0+r, dst.Cols), clo); lo < chi {
			clear(oRows[r][lo:chi])
		}
	}
}

// genericTile computes output rows [rlo, rhi) × columns [clo, chi) with
// per-block dots: block-major packed metadata, j-tiling for cache reuse,
// and the dispatched dot product. Each row covers its live partitions
// and columns only.
func genericTile(dst *tensor.Matrix, a *quant.Tensor, ks *kernelScratch, bCodes []uint8,
	mode maddMode, mk mask, rlo, rhi, clo, chi int) {
	z := a.Cols
	n := dst.Cols
	nb := a.NBlocks
	for g := 0; g < nb; g++ {
		lo, hi := a.BlockRange(g)
		blockLen := float32(hi - lo)
		mbs := ks.mb[g*n : g*n+n]
		sbs := ks.sb[g*n : g*n+n]
		bss := ks.bs[g*n : g*n+n]
		for j0 := clo; j0 < chi; j0 += tileJ {
			j1 := j0 + tileJ
			if j1 > chi {
				j1 = chi
			}
			for i := rlo; i < rhi; i++ {
				if g >= mk.blocks(i, a.Pi, z) {
					continue
				}
				ma, sa := a.Meta(i, g)
				aSum := float32(a.Sum(i, g))
				aRow := a.Codes[i*z+lo : i*z+hi]
				oRow := dst.Row(i)
				for j, jhi := j0, min(j1, mk.cols(i, n)); j < jhi; j++ {
					// Integer dot product over the block — the part GPUs
					// accelerate with INT8 tensor cores.
					acc := dot(mode, aRow, bCodes[j*z+lo:j*z+hi])
					mb, sb, bSum := mbs[j], sbs[j], bss[j]
					// Eq. (4) correction terms.
					oRow[j] += float32(sa*sb*float32(acc)) +
						float32(mb*sa*aSum) +
						float32(ma*sb*bSum) +
						float32(blockLen*ma*mb)
				}
			}
		}
	}
}
