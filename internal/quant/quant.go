// Package quant implements the asymmetric b-bit stochastic quantizer of
// HACK (§5.2): each row (or column) of a matrix is split into partitions
// of Π elements; every partition stores its minimum m and scale
// s = (max−min)/(2^b−1) and each value x is encoded as
// round((x−m)/s) where round is unbiased stochastic rounding.
//
// The same quantizer also serves the dequantize-before-compute baselines
// (CacheGen/KVQuant style), which call Dequantize on the stored codes
// every decode iteration; HACK instead feeds the raw codes to the
// homomorphic matmul in package hack.
//
// Codes are held one-per-byte (INT8) for computation — mirroring the
// paper's Triton constraint that the GPU computes on INT8 — and can be
// bit-packed with Pack for wire transfer and cache-size accounting.
//
// # SIMD path
//
// HACK quantizes K and V on ingest and Q and P inside every prefill and
// decode step, so the quantizer is a kernel. On amd64 with AVX2 (the
// internal/cpufeat probe) it runs as one AVX2 kernel family in
// encode_amd64.s: a min/max sweep, then an encoder that rounds eight
// elements per step — eight consecutive elements of an along-cols
// partition (P, Q, K), or one row of eight columns of an along-rows one
// (V). Along columns one call covers every partition that lies end to
// end with the last — a P row's live partitions, a K or Q head's
// one-partition rows. The pure-Go loops in encode.go stay as the
// portable path, the sub-vector tails, and the reference the tests
// compare against, and the two produce the same bits: every code, Min,
// Scale and Sums value, hence every logit, token and KV frame. Each step
// repeats the scalar one exactly:
//
//   - x−min is a float32 subtraction, widened to float64 (exact), and
//     divided by the float64 scale with a real division: a multiply by
//     the reciprocal rounds twice and moves codes that sit on a step.
//   - Each clamp is one compare-and-select, VMAXPD(0, q) = 0 > q ? 0 : q
//     and VMINPD(2^b−1, q) = 2^b−1 < q ? 2^b−1 : q, so a NaN or −0
//     quotient passes through it as it passes the scalar ifs.
//   - floor is VROUNDPD; the fraction q−⌊q⌋ is exact.
//   - splitmix64 runs in 64-bit lanes, each 64-bit multiply assembled
//     from three 32×32 VPMULUDQ products, and its 53-bit output becomes
//     the uniform exactly through the exponent fields of 2³¹ and 2⁻¹.
//   - u < q−⌊q⌋ is compared in float64.
//   - Nothing is fused: a fused multiply-add rounds once where the
//     scalar code rounds twice, so no FMA instruction appears.
//   - A code is truncated to int32 and packed with unsigned saturation:
//     the NaN quotient's 0x80000000 becomes 0, the low byte the scalar
//     uint8 conversion keeps.
//
// The min/max sweep keeps the scalar loop's first-wins rule: an element
// replaces the running min (max) only when strictly below (above) it, so
// between +0 and −0 the earlier one is stored, sign bit and all. Along
// columns the eight lanes reduce to one value, which fixes everything
// but the sign of a zero, so a zero min or max is re-read from the
// partition's first zero element. Along rows each lane is one column's
// own sweep.
package quant

import (
	"fmt"
	"math/rand"

	"github.com/hackkv/hack/internal/tensor"
)

// Axis selects which way partitions run through the matrix.
type Axis int

const (
	// AlongCols partitions each row along the column axis. Q and K use
	// this layout: their quantization partitions lie along the head
	// dimension, which is fixed, so appended tokens form new partitions
	// of their own (§5.3).
	AlongCols Axis = iota
	// AlongRows partitions each column along the row axis. V uses this
	// layout: its partitions lie along the sequence dimension, which
	// grows by one row per decode step — the reason requantization
	// elimination exists.
	AlongRows
)

func (a Axis) String() string {
	if a == AlongCols {
		return "along-cols"
	}
	return "along-rows"
}

// Rounding selects how fractional quantization steps are resolved.
type Rounding int

const (
	// StochasticRounding rounds a fractional code q up with probability
	// q−⌊q⌋ and down otherwise, making the quantization error zero-mean
	// (§5.2). The uniform that decides element (r, c) is
	// Uniform(Key, Row0+r, c): a pure function of the element's absolute
	// position, not of the matrix's shape, of what was quantized before
	// it, or of which node quantizes it. A token's codes are therefore
	// the same whether its prompt is prefilled cold, resumed over cached
	// prefix pages, or shipped to another node.
	StochasticRounding Rounding = iota
	// NearestRounding rounds to the nearest integer; deterministic,
	// used by tests and by the KVQuant-style baseline.
	NearestRounding
)

// Config parameterizes a quantization pass.
type Config struct {
	// Bits per code: 2 for KV, 8 for Q and P in HACK. Must be 1..8.
	Bits int
	// Partition is Π, the number of elements per partition. The paper
	// requires a multiple of 16 for GPU efficiency; we only require >0
	// but the shipped configurations use 32/64/128.
	Partition int
	// Rounding mode; stochastic by default.
	Rounding Rounding
	// Key selects the stochastic-rounding stream (StreamKeys derives one
	// per operand from a request seed; 0 means unset) and Row0 is the
	// absolute position of the matrix's first row, so row r of this
	// pass rounds as position Row0+r.
	Key  uint64
	Row0 int
	// RNG, when set, replaces Key with a fresh draw for every pass — for
	// callers that hold a generator rather than a position-keyed stream.
	RNG *rand.Rand
}

func (c Config) validate() error {
	if c.Bits < 1 || c.Bits > 8 {
		return fmt.Errorf("quant: bits %d out of range [1,8]", c.Bits)
	}
	if c.Partition <= 0 {
		return fmt.Errorf("quant: partition size %d must be positive", c.Partition)
	}
	switch c.Rounding {
	case NearestRounding:
	case StochasticRounding:
		if c.Key == 0 && c.RNG == nil {
			return fmt.Errorf("quant: stochastic rounding requires a stream key or an RNG")
		}
	default:
		return fmt.Errorf("quant: unknown rounding mode %d", c.Rounding)
	}
	return nil
}

// Keys holds the stochastic-rounding stream keys of the four operands
// HACK attention quantizes: K and V in the cache, Q and P in the
// attention kernels.
type Keys struct{ K, V, Q, P uint64 }

// StreamKeys derives the per-operand stream keys of a request seed.
// Changing the derivation (or Uniform) changes every quantized code, so
// every cached page and every shipped frame with it.
func StreamKeys(seed int64) Keys {
	key := func(op uint64) uint64 {
		if k := splitmix64(uint64(seed) + phi*op); k != 0 {
			return k
		}
		return 1 // 0 means unset
	}
	return Keys{K: key(1), V: key(2), Q: key(3), P: key(4)}
}

// phi is splitmix64's counter increment. Element (row, col)'s counter is
// key + phi·(row<<32 | col + 1), so the next column's counter is phi
// further on and the next row's phiRow further on.
const (
	phi    = 0x9e3779b97f4a7c15
	phiRow = 0x7f4a7c1500000000 // phi<<32 mod 2⁶⁴
)

// Uniform returns the rounding uniform on [0, 1) of element (row, col)
// under stream key: the splitmix64 finalizer over the element's
// position row<<32 | col, counted from the key.
func Uniform(key uint64, row, col int) float64 { return uniform(counter(key, row, col)) }

// counter is the splitmix64 input that rounds element (row, col).
func counter(key uint64, row, col int) uint64 {
	return key + phi*(uint64(row)<<32|uint64(uint32(col))+1)
}

// uniform maps a counter to its rounding uniform: the top 53 bits of its
// splitmix64 hash, scaled into [0, 1).
func uniform(h uint64) float64 { return float64(splitmix64(h)>>11) / (1 << 53) }

// splitmix64 is the splitmix64 output finalizer.
func splitmix64(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Tensor is a quantized matrix: INT8 codes plus per-partition metadata.
type Tensor struct {
	Rows, Cols int
	Axis       Axis
	Bits       int
	Pi         int
	// NBlocks is the number of partitions per vector (per row for
	// AlongCols, per column for AlongRows).
	NBlocks int
	// Codes holds one code per element in the source matrix's row-major
	// order, widened to a byte each (the INT8 compute format).
	Codes []uint8
	// Min and Scale hold the per-(vector, block) dequantization
	// metadata, already rounded through FP16 as the paper stores them.
	Min, Scale []float32
	// Sums holds Σ codes per (vector, block) — the summation-elimination
	// cache of §5.3. Kept in int32 here; the wire/cache format models
	// them as INT16 (§6).
	Sums []int32
}

// numVectors returns the number of quantization vectors.
func (t *Tensor) numVectors() int {
	if t.Axis == AlongCols {
		return t.Rows
	}
	return t.Cols
}

// axisLen returns the length of the partitioned axis.
func (t *Tensor) axisLen() int {
	if t.Axis == AlongCols {
		return t.Cols
	}
	return t.Rows
}

// metaIndex returns the index into Min/Scale/Sums for vector v, block b.
func (t *Tensor) metaIndex(v, b int) int { return v*t.NBlocks + b }

// Meta returns the (min, scale) pair for vector v, block b.
func (t *Tensor) Meta(v, b int) (min, scale float32) {
	i := t.metaIndex(v, b)
	return t.Min[i], t.Scale[i]
}

// Sum returns the cached code sum for vector v, block b.
func (t *Tensor) Sum(v, b int) int32 { return t.Sums[t.metaIndex(v, b)] }

// Code returns the code of element (i, j) in the source matrix layout.
func (t *Tensor) Code(i, j int) uint8 { return t.Codes[i*t.Cols+j] }

// BlockRange returns the element range [lo, hi) along the partitioned
// axis covered by block b.
func (t *Tensor) BlockRange(b int) (lo, hi int) {
	lo = b * t.Pi
	hi = lo + t.Pi
	if n := t.axisLen(); hi > n {
		hi = n
	}
	return lo, hi
}

// Quantize encodes m along the given axis. The returned tensor owns all
// its storage.
func Quantize(m *tensor.Matrix, axis Axis, cfg Config) (*Tensor, error) {
	return QuantizeInto(nil, m, axis, cfg)
}

// QuantizeInto encodes m like Quantize but reuses t's storage when its
// backing arrays have capacity, allocating only past the high-water
// mark. Passing nil t allocates a fresh tensor; the (possibly re-sliced)
// tensor is returned. This is the per-token path of the attention decode
// loop: quantizing the 1×d_h query into the same tensor every step costs
// no allocations at steady state.
func QuantizeInto(t *Tensor, m *tensor.Matrix, axis Axis, cfg Config) (*Tensor, error) {
	return quantizeInto(t, m, axis, m.Cols, -1, cfg)
}

// QuantizeCausalInto is QuantizeInto along columns of the first cols
// columns of a causally masked matrix — row i zero past column i+offset,
// as tensor.CausalSoftmax leaves a prefill's attention probabilities. It
// reads those columns in place at m's own row stride, and the result is
// the cols-column tensor QuantizeInto makes of them. Partitions that lie
// entirely past the diagonal are written without being scanned as what
// QuantizeInto makes of an all-zero partition: zero codes, min, scale
// and sum (a degenerate partition draws no rounding uniforms either). A
// negative offset quantizes every partition.
func QuantizeCausalInto(t *Tensor, m *tensor.Matrix, cols, offset int, cfg Config) (*Tensor, error) {
	if cols < 0 || cols > m.Cols {
		return nil, fmt.Errorf("quant: causal quantize of %d columns of a %d-column matrix", cols, m.Cols)
	}
	return quantizeInto(t, m, AlongCols, cols, offset, cfg)
}

// quantizeInto encodes the first cols columns of m (all of them along
// rows).
func quantizeInto(t *Tensor, m *tensor.Matrix, axis Axis, cols, offset int, cfg Config) (*Tensor, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	axisLen, nvec := cols, m.Rows
	if axis == AlongRows {
		axisLen, nvec = m.Rows, cols
	}
	nblocks := (axisLen + cfg.Partition - 1) / cfg.Partition
	if t == nil {
		t = &Tensor{}
	}
	t.Rows, t.Cols = m.Rows, cols
	t.Axis, t.Bits, t.Pi, t.NBlocks = axis, cfg.Bits, cfg.Partition, nblocks
	t.Codes = tensor.Grow(t.Codes, m.Rows*cols)
	t.Min = tensor.Grow(t.Min, nvec*nblocks)
	t.Scale = tensor.Grow(t.Scale, nvec*nblocks)
	t.Sums = tensor.Grow(t.Sums, nvec*nblocks)
	r := rounder{
		stochastic: cfg.Rounding == StochasticRounding,
		key:        cfg.Key,
		row0:       cfg.Row0,
		maxCode:    float64(int(1)<<cfg.Bits - 1),
	}
	if cfg.RNG != nil {
		r.key = cfg.RNG.Uint64()
	}
	if axis == AlongRows {
		for b := 0; b < nblocks; b++ {
			r.quantizeRows(t, m, b)
		}
		return t, nil
	}
	var batch colsBatch
	for v := 0; v < nvec; v++ {
		live := nblocks
		if offset >= 0 {
			live = (tensor.LiveCols(v, offset, axisLen) + cfg.Partition - 1) / cfg.Partition
		}
		for b := 0; b < nblocks; b++ {
			lo, hi := t.BlockRange(b)
			mi := t.metaIndex(v, b)
			if b < live {
				r.addCols(&batch, t, m.Data, v*m.Cols+lo, v*cols+lo, mi, hi-lo, counter(r.key, r.row0+v, lo))
				continue
			}
			clear(t.Codes[v*cols+lo : v*cols+hi])
			t.Min[mi], t.Scale[mi], t.Sums[mi] = 0, 0, 0
		}
	}
	r.flushCols(&batch, t, m.Data)
	return t, nil
}

// MustQuantize is Quantize for static configurations known to be valid;
// it panics on error.
func MustQuantize(m *tensor.Matrix, axis Axis, cfg Config) *Tensor {
	t, err := Quantize(m, axis, cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// Dequantize reconstructs the matrix as s·code + m per element. This is
// the operation HACK avoids and the baselines pay every decode iteration.
func (t *Tensor) Dequantize() *tensor.Matrix {
	return t.DequantizeInto(&tensor.Matrix{})
}

// DequantizeInto reconstructs the matrix into dst (reshaped as needed)
// and returns dst. The dequantize-before-compute baselines call this
// every decode step over the whole cache; reusing the destination keeps
// that overhead a compute cost rather than an allocator cost.
func (t *Tensor) DequantizeInto(dst *tensor.Matrix) *tensor.Matrix {
	dst.Reset(t.Rows, t.Cols)
	nvec := t.numVectors()
	for v := 0; v < nvec; v++ {
		for b := 0; b < t.NBlocks; b++ {
			lo, hi := t.BlockRange(b)
			mi := t.metaIndex(v, b)
			minV, scale := t.Min[mi], t.Scale[mi]
			if t.Axis == AlongCols {
				base := v * t.Cols
				row := dst.Row(v)
				for j := lo; j < hi; j++ {
					row[j] = scale*float32(t.Codes[base+j]) + minV
				}
			} else {
				for i := lo; i < hi; i++ {
					dst.Data[i*t.Cols+v] = scale*float32(t.Codes[i*t.Cols+v]) + minV
				}
			}
		}
	}
	return dst
}

// DequantOps returns the floating-point operation count of Dequantize
// (one multiply and one add per element), the 2·elements cost quoted in
// §5.3.
func (t *Tensor) DequantOps() int64 { return 2 * int64(t.Rows) * int64(t.Cols) }

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := *t
	c.Codes = append([]uint8(nil), t.Codes...)
	c.Min = append([]float32(nil), t.Min...)
	c.Scale = append([]float32(nil), t.Scale...)
	c.Sums = append([]int32(nil), t.Sums...)
	return &c
}
