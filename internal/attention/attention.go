// Package attention implements the self-attention backends compared in
// the paper's evaluation, all operating per head on real numbers:
//
//   - Exact: float32 attention with a float32 cache — the numeric
//     reference that accuracy is measured against.
//   - FP16: the disaggregation baseline. KV is stored and transmitted in
//     FP16; computation happens on the FP16-rounded values.
//   - Dequant: the CacheGen/KVQuant family. KV is quantized per token at
//     2 bits; every use first dequantizes the whole cache back to FP16
//     (the overhead HACK eliminates).
//   - HACK: homomorphic quantization (§5). Q and P are quantized to
//     INT8, K and V to INT2; Q·Kᵀ and P·V run directly on quantized data
//     via package hack, with summation elimination and requantization
//     elimination individually toggleable for the §7.4 ablations.
//
// Each backend mirrors the paper's fused attn_prefill / attn_decode
// kernels (§6) as a Prefill and a Decode method, and reports Stats — the
// op and byte tallies that the performance model prices.
//
// Like the paper's fused prefill kernels, prefill computes only the live
// causal triangle: every backend scales and softmaxes each score row's
// live prefix (tensor.CausalSoftmax), and the HACK backend also skips
// the masked tiles of its quantized products — Q·Kᵀ computes no score
// past the diagonal, the P quantizer writes the all-zero Π-blocks past
// it without scanning them, and P·V stops each row at its last live
// block. All of it is exact: outputs are bit-identical to computing the
// full matrix and masking it, and Stats count the work actually done.
package attention

import (
	"fmt"
	"math"

	"github.com/hackkv/hack/internal/fp16"
	"github.com/hackkv/hack/internal/hack"
	"github.com/hackkv/hack/internal/kvcache"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// Stats tallies the work one attention call performed. All counts are
// cumulative over the call and additive across calls.
type Stats struct {
	// FloatOps counts FP16-class floating-point operations (matmuls on
	// unquantized data, softmax, scaling, the FP16 tail of V).
	FloatOps int64
	// IntOps counts integer multiply-accumulate operations executed on
	// quantized codes (the INT8-tensor-core work).
	IntOps int64
	// QuantOps counts quantization work (performed once per token).
	QuantOps int64
	// DequantOps counts KV dequantization work (the per-iteration
	// baseline overhead).
	DequantOps int64
	// ApproxOps counts Eq. (4) approximation work (HACK only).
	ApproxOps int64
	// SumOps counts Σb′ recomputation work (HACK without SE only).
	SumOps int64
	// RequantOps counts V-tail requantization work (HACK without RQE).
	RequantOps int64
	// KVBytesRead counts bytes loaded from the KV cache.
	KVBytesRead int64
}

// Add accumulates s2 into s.
func (s *Stats) Add(s2 Stats) {
	s.FloatOps += s2.FloatOps
	s.IntOps += s2.IntOps
	s.QuantOps += s2.QuantOps
	s.DequantOps += s2.DequantOps
	s.ApproxOps += s2.ApproxOps
	s.SumOps += s2.SumOps
	s.RequantOps += s2.RequantOps
	s.KVBytesRead += s2.KVBytesRead
}

// Head is the per-sequence, per-attention-head state of a backend. Calls
// must alternate a single Prefill followed by zero or more Decodes; a
// head restored over cached tokens takes its Prefill over the rows that
// follow them.
//
// The matrix returned by Prefill or Decode is owned by the head and is
// only valid until the next call on the same head: the hot decode loop
// reuses one output buffer per head so that a step allocates nothing.
// Clone the result to retain it across calls.
type Head interface {
	// Prefill runs causal self-attention over the prompt's q, k, v
	// (each L×d_h), fills the KV cache, and returns the attention
	// output (L×d_h).
	Prefill(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error)
	// Decode runs one autoregressive step: q, k, v are 1×d_h; k and v
	// are appended to the cache and the output is 1×d_h.
	Decode(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error)
	// Len returns the number of cached tokens.
	Len() int
	// CacheUsage reports the cache's resident memory.
	CacheUsage() kvcache.Usage
	// WireSize reports the bytes needed to ship the cache from a
	// prefill to a decode instance.
	WireSize() int
}

// Backend constructs per-head attention state.
type Backend interface {
	// Name identifies the method in experiment output.
	Name() string
	// NewHead returns fresh per-sequence state for one head of width
	// headDim.
	NewHead(headDim int) (Head, error)
}

// scoreScale is the 1/√d_h factor of the attention scores.
func scoreScale(dh int) float32 { return float32(1 / math.Sqrt(float64(dh))) }

// scaledScoresInto computes S = q·kᵀ/√d_h in float32 into dst.
func scaledScoresInto(dst, q, k *tensor.Matrix) *tensor.Matrix {
	return tensor.MatMulTransBInto(dst, q, k).Scale(scoreScale(q.Cols))
}

// causalProbsInto computes the causal attention probabilities of a
// prefill in float32 into dst: the scores q·kᵀ, then each row's live
// prefix scaled and softmaxed (the query rows are k's last q.Rows
// positions). It returns the probabilities and the live cell count.
func causalProbsInto(dst, q, k *tensor.Matrix) (*tensor.Matrix, int64) {
	offset := k.Rows - q.Rows
	s := tensor.CausalSoftmax(tensor.MatMulTransBInto(dst, q, k), offset, scoreScale(q.Cols))
	return s, liveCells(s.Rows, offset, s.Cols, 1)
}

// liveCells counts the causal live cells of a rows×cols score matrix
// whose row i attends columns 0..i+offset (all of them when offset < 0),
// rounding each row's live prefix up to whole pi-blocks — the span a
// Π-partitioned pass over the row touches (pi = 1 counts cells).
func liveCells(rows, offset, cols, pi int) int64 {
	var n int64
	for i := 0; i < rows; i++ {
		live := (tensor.LiveCols(i, offset, cols) + pi - 1) / pi * pi
		n += int64(min(live, cols))
	}
	return n
}

// softmaxOps estimates the floating-point cost of a softmax over the
// given number of cells (exp ≈ 4 ops, plus max/sum/divide passes).
func softmaxOps(cells int64) int64 { return 7 * cells }

// floatPrefillOps counts a float prefill's work: the full q·kᵀ
// (2·d_h per score), the live softmax, and P·V over the live
// probabilities (the zero ones are skipped).
func floatPrefillOps(q, s *tensor.Matrix, live int64) int64 {
	return 2*int64(q.Cols)*int64(s.Rows)*int64(s.Cols) + softmaxOps(live) + 2*int64(q.Cols)*live
}

// ---------------------------------------------------------------------
// Exact float32 reference.

// ExactBackend computes attention in float32 with an unrounded cache. It
// is the accuracy reference: every other backend's error is measured
// against its generations.
type ExactBackend struct{}

// Name implements Backend.
func (ExactBackend) Name() string { return "Exact" }

// NewHead implements Backend.
func (ExactBackend) NewHead(headDim int) (Head, error) {
	if headDim <= 0 {
		return nil, fmt.Errorf("attention: head dim %d", headDim)
	}
	return &exactHead{k: tensor.New(0, headDim), v: tensor.New(0, headDim),
		s: &tensor.Matrix{}, out: &tensor.Matrix{}}, nil
}

type exactHead struct {
	k, v *tensor.Matrix
	// s and out are the per-call score and output buffers, reused across
	// calls so the decode loop stops allocating (see Head).
	s, out *tensor.Matrix
}

func (h *exactHead) Prefill(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	h.k = tensor.AppendRows(h.k, k)
	h.v = tensor.AppendRows(h.v, v)
	s, live := causalProbsInto(h.s, q, h.k)
	out := tensor.MatMulInto(h.out, s, h.v)
	st.FloatOps = floatPrefillOps(q, s, live)
	return out, st, nil
}

func (h *exactHead) Decode(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	h.k = tensor.AppendRows(h.k, k)
	h.v = tensor.AppendRows(h.v, v)
	s := scaledScoresInto(h.s, q, h.k)
	tensor.Softmax(s)
	out := tensor.MatMulInto(h.out, s, h.v)
	st.FloatOps = 4*int64(q.Cols)*int64(h.k.Rows) + softmaxOps(int64(s.Cols))
	st.KVBytesRead = 4 * int64(len(h.k.Data)+len(h.v.Data))
	return out, st, nil
}

func (h *exactHead) Len() int { return h.k.Rows }

func (h *exactHead) CacheUsage() kvcache.Usage {
	return kvcache.Usage{FP16Bytes: 4 * (len(h.k.Data) + len(h.v.Data))} // float32, reported as raw bytes
}

func (h *exactHead) WireSize() int { return 4 * (len(h.k.Data) + len(h.v.Data)) }

// ---------------------------------------------------------------------
// FP16 baseline.

// FP16Backend is the disaggregated-inference baseline: FP16 KV storage
// and transmission, computation on the rounded values, no quantization.
type FP16Backend struct{}

// Name implements Backend.
func (FP16Backend) Name() string { return "Baseline" }

// NewHead implements Backend.
func (FP16Backend) NewHead(headDim int) (Head, error) {
	if headDim <= 0 {
		return nil, fmt.Errorf("attention: head dim %d", headDim)
	}
	return &fp16Head{c: kvcache.NewFP16(headDim),
		qr: &tensor.Matrix{}, s: &tensor.Matrix{}, out: &tensor.Matrix{}}, nil
}

type fp16Head struct {
	c *kvcache.FP16Cache
	// qr/s/out are reused per-call buffers (see Head).
	qr, s, out *tensor.Matrix
}

func (h *fp16Head) Prefill(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	if err := h.c.Append(k, v); err != nil {
		return nil, st, err
	}
	qr := h.qr.CopyInto(q)
	fp16.RoundSlice(qr.Data)
	s, live := causalProbsInto(h.s, qr, h.c.K)
	out := tensor.MatMulInto(h.out, s, h.c.V)
	st.FloatOps = floatPrefillOps(q, s, live)
	return out, st, nil
}

func (h *fp16Head) Decode(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	if err := h.c.Append(k, v); err != nil {
		return nil, st, err
	}
	qr := h.qr.CopyInto(q)
	fp16.RoundSlice(qr.Data)
	s := scaledScoresInto(h.s, qr, h.c.K)
	tensor.Softmax(s)
	out := tensor.MatMulInto(h.out, s, h.c.V)
	st.FloatOps = 4*int64(q.Cols)*int64(h.c.Len()) + softmaxOps(int64(s.Cols))
	st.KVBytesRead = int64(h.c.Usage().Total())
	return out, st, nil
}

func (h *fp16Head) Len() int                  { return h.c.Len() }
func (h *fp16Head) CacheUsage() kvcache.Usage { return h.c.Usage() }
func (h *fp16Head) WireSize() int             { return h.c.WireSize() }

// ---------------------------------------------------------------------
// Dequantize-before-compute family (CacheGen / KVQuant).

// DequantConfig parameterizes a dequantize-before-compute backend. The
// two published systems are modeled as per-token 2-bit asymmetric
// quantizers with different effective group sizes, their wire encodings
// priced by WireFactor; both pay a full KV dequantization on every
// attention call.
type DequantConfig struct {
	// MethodName labels the backend ("CacheGen", "KVQuant", ...).
	MethodName string
	// Pi is the quantization group size along the head dimension.
	Pi int
	// KVBits is the code width (2 in the paper).
	KVBits int
	// Rounding and Seed configure the quantizer; every head rounds under
	// the stream keys quant.StreamKeys(Seed).
	Rounding quant.Rounding
	Seed     int64
	// WireFactor scales the wire size relative to raw packed codes,
	// modeling CacheGen's entropy-coded bitstream (< 1) versus plain
	// packing (1). Resident cache size is unaffected.
	WireFactor float64
}

// DequantBackend implements Backend for the dequantize family.
type DequantBackend struct{ cfg DequantConfig }

// NewDequant validates the configuration and returns the backend.
func NewDequant(cfg DequantConfig) (*DequantBackend, error) {
	if cfg.MethodName == "" {
		return nil, fmt.Errorf("attention: dequant backend needs a name")
	}
	if cfg.WireFactor <= 0 || cfg.WireFactor > 1 {
		return nil, fmt.Errorf("attention: wire factor %v out of (0,1]", cfg.WireFactor)
	}
	if cfg.Pi <= 0 || cfg.KVBits < 1 || cfg.KVBits > 8 {
		return nil, fmt.Errorf("attention: dequant pi=%d bits=%d", cfg.Pi, cfg.KVBits)
	}
	return &DequantBackend{cfg: cfg}, nil
}

// Name implements Backend.
func (b *DequantBackend) Name() string { return b.cfg.MethodName }

// NewHead implements Backend.
func (b *DequantBackend) NewHead(headDim int) (Head, error) {
	c, err := kvcache.NewTokenQuant(kvcache.Config{
		HeadDim: headDim, Pi: b.cfg.Pi, KVBits: b.cfg.KVBits,
		Rounding: b.cfg.Rounding, Keys: quant.StreamKeys(b.cfg.Seed),
	})
	if err != nil {
		return nil, err
	}
	return &dequantHead{cfg: b.cfg, c: c,
		qr: &tensor.Matrix{}, dk: &tensor.Matrix{}, dv: &tensor.Matrix{},
		s: &tensor.Matrix{}, out: &tensor.Matrix{}}, nil
}

type dequantHead struct {
	cfg DequantConfig
	c   *kvcache.TokenQuantCache
	// qr/dk/dv/s/out are reused per-call buffers: the defining per-step
	// dequantization lands in dk/dv instead of fresh matrices, so its
	// cost is the compute, not the allocator (see Head).
	qr, dk, dv, s, out *tensor.Matrix
}

func (h *dequantHead) Prefill(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	if err := h.c.Append(k, v); err != nil {
		return nil, st, err
	}
	st.QuantOps = 2 * int64(k.Rows) * int64(k.Cols) * 2
	dk, dv := h.c.DequantizeKVInto(h.dk, h.dv)
	st.DequantOps = 4 * int64(dk.Rows) * int64(dk.Cols)
	qr := h.qr.CopyInto(q)
	fp16.RoundSlice(qr.Data)
	s, live := causalProbsInto(h.s, qr, dk)
	out := tensor.MatMulInto(h.out, s, dv)
	st.FloatOps = floatPrefillOps(q, s, live)
	return out, st, nil
}

func (h *dequantHead) Decode(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	if err := h.c.Append(k, v); err != nil {
		return nil, st, err
	}
	st.QuantOps = 2 * int64(k.Cols) * 2
	// The defining cost: the whole cache is dequantized every step.
	dk, dv := h.c.DequantizeKVInto(h.dk, h.dv)
	st.DequantOps = 4 * int64(dk.Rows) * int64(dk.Cols)
	qr := h.qr.CopyInto(q)
	fp16.RoundSlice(qr.Data)
	s := scaledScoresInto(h.s, qr, dk)
	tensor.Softmax(s)
	out := tensor.MatMulInto(h.out, s, dv)
	st.FloatOps = 4*int64(q.Cols)*int64(dk.Rows) + softmaxOps(int64(s.Cols))
	st.KVBytesRead = int64(h.c.Usage().Total())
	return out, st, nil
}

func (h *dequantHead) Len() int                  { return h.c.Len() }
func (h *dequantHead) CacheUsage() kvcache.Usage { return h.c.Usage() }

func (h *dequantHead) WireSize() int {
	return int(math.Ceil(float64(h.c.WireSize()) * h.cfg.WireFactor))
}

// ---------------------------------------------------------------------
// HACK.

// HACKConfig parameterizes the homomorphic backend.
type HACKConfig struct {
	// Pi is the quantization partition size Π (32/64/128 in §7.5).
	Pi int
	// QBits is the Q and P precision (8 in the paper).
	QBits int
	// KVBits is the K and V precision (2 in the paper).
	KVBits int
	// SummationElimination caches Σb′ (§5.3); disabling it yields the
	// HACK/SE ablation.
	SummationElimination bool
	// RequantizationElimination keeps the trailing V block in FP16
	// (§5.3); disabling it yields the HACK/RQE ablation.
	RequantizationElimination bool
	// Rounding and Seed configure the quantizers. Under stochastic
	// rounding every operand rounds under its stream key from
	// quant.StreamKeys(Seed), each element at its absolute position, so
	// a head's codes never depend on the prompt's length, on the order
	// operands are quantized in, or on which node quantizes them.
	Rounding quant.Rounding
	Seed     int64
	// NameOverride replaces the derived method name when non-empty.
	NameOverride string
	// Parallelism bounds the worker goroutines the homomorphic kernels
	// may fan out per multiplication (hack.Options.Parallelism): 0 sizes
	// like the sweep pool, 1 forces serial. Outputs are bit-identical at
	// every setting.
	Parallelism int
}

// transferable reports why heads of this configuration cannot move
// their cache to another head — wire export and restore, prefix pages —
// or nil when they can.
func (c HACKConfig) transferable() error {
	if !c.RequantizationElimination {
		return fmt.Errorf("attention: cache transfer requires RQE (the quantized-tail ablation does not ship)")
	}
	return nil
}

// DefaultHACKConfig returns the paper's shipping configuration:
// Π=64, INT8 Q/P, INT2 KV, SE and RQE enabled, stochastic rounding.
func DefaultHACKConfig(seed int64) HACKConfig {
	return HACKConfig{
		Pi: 64, QBits: 8, KVBits: 2,
		SummationElimination:      true,
		RequantizationElimination: true,
		Rounding:                  quant.StochasticRounding,
		Seed:                      seed,
	}
}

// HACKBackend implements Backend using homomorphic quantization.
type HACKBackend struct{ cfg HACKConfig }

// NewHACK validates the configuration and returns the backend.
func NewHACK(cfg HACKConfig) (*HACKBackend, error) {
	if cfg.Pi <= 0 {
		return nil, fmt.Errorf("attention: hack pi %d", cfg.Pi)
	}
	if cfg.QBits < 1 || cfg.QBits > 8 || cfg.KVBits < 1 || cfg.KVBits > 8 {
		return nil, fmt.Errorf("attention: hack bits q=%d kv=%d", cfg.QBits, cfg.KVBits)
	}
	return &HACKBackend{cfg: cfg}, nil
}

// Name implements Backend.
func (b *HACKBackend) Name() string {
	if b.cfg.NameOverride != "" {
		return b.cfg.NameOverride
	}
	name := "HACK"
	if !b.cfg.SummationElimination {
		name += "/SE"
	}
	if !b.cfg.RequantizationElimination {
		name += "/RQE"
	}
	return name
}

// newHead builds a head over the cache build makes from the backend's
// cache configuration. Every head — fresh, restored from a shipped
// cache, or restored from prefix pages — is built here.
func (b *HACKBackend) newHead(headDim int, build func(kvcache.Config) (*kvcache.Cache, error)) (Head, error) {
	keys := quant.StreamKeys(b.cfg.Seed)
	c, err := build(kvcache.Config{
		HeadDim: headDim, Pi: b.cfg.Pi, KVBits: b.cfg.KVBits,
		Rounding: b.cfg.Rounding, Keys: keys,
		RQE: b.cfg.RequantizationElimination,
	})
	if err != nil {
		return nil, err
	}
	return &hackHead{cfg: b.cfg, c: c, keys: keys,
		s: &tensor.Matrix{}, pvOut: &tensor.Matrix{},
		pTail: &tensor.Matrix{}, tailOut: &tensor.Matrix{}, out: &tensor.Matrix{}}, nil
}

// NewHead implements Backend.
func (b *HACKBackend) NewHead(headDim int) (Head, error) { return b.newHead(headDim, kvcache.New) }

// RestoreHead rebuilds per-sequence head state from shipped cache
// contents: the quantized K and V (complete partitions) and the FP16 RQE
// tail. Every quantizer draw is a pure function of the token position,
// so the restored head continues bit-identically to the head that
// produced the cache with no stream state to carry: rngDraws must be 0.
// A non-zero count comes from an encoder that rounds under a
// sequential stream, whose codes this node would silently diverge from.
func (b *HACKBackend) RestoreHead(headDim int, k, v *quant.Tensor, tail *tensor.Matrix, rngDraws uint64) (Head, error) {
	if rngDraws != 0 {
		return nil, fmt.Errorf("attention: restore of a cache shipped with %d RNG draws (a sequential-stream rounding layout this node does not speak)", rngDraws)
	}
	if err := b.cfg.transferable(); err != nil {
		return nil, err
	}
	return b.newHead(headDim, func(cfg kvcache.Config) (*kvcache.Cache, error) {
		return kvcache.Restore(cfg, k, v, tail)
	})
}

type hackHead struct {
	cfg  HACKConfig
	c    *kvcache.Cache
	keys quant.Keys

	// Per-call scratch, reused across calls so a decode step allocates
	// nothing at steady state (see Head): the quantized Q and P tensors,
	// the score matrix, the FP16-tail slice of P, the partial products,
	// and the output accumulator.
	qq, pq       *quant.Tensor
	s            *tensor.Matrix
	pvOut, pTail *tensor.Matrix
	tailOut, out *tensor.Matrix
}

// qCfg is the Q/P quantizer configuration for rows starting at absolute
// position row0 of the operand with stream key key.
func (h *hackHead) qCfg(key uint64, row0 int) quant.Config {
	return quant.Config{Bits: h.cfg.QBits, Partition: h.cfg.Pi, Rounding: h.cfg.Rounding, Key: key, Row0: row0}
}

func (h *hackHead) opts() hack.Options {
	return hack.Options{ReuseSums: h.cfg.SummationElimination, Parallelism: h.cfg.Parallelism}
}

// attend computes softmax(q·Kᵀ/√d)·V against the cache for the given
// query rows — the cache's most recently appended tokens. maskOffset >= 0
// is a prefill: query row i attends key positions 0..i+maskOffset, and
// every product, the softmax and the P quantizer cover that live
// triangle only. maskOffset < 0 is a decode step, which attends to
// everything through the same kernels.
func (h *hackHead) attend(q *tensor.Matrix, maskOffset int, st *Stats) (*tensor.Matrix, error) {
	dh := q.Cols
	row0 := h.c.Len() - q.Rows
	qq, err := quant.QuantizeInto(h.qq, q, quant.AlongCols, h.qCfg(h.keys.Q, row0))
	if err != nil {
		return nil, err
	}
	h.qq = qq
	st.QuantOps += 2 * int64(q.Rows) * int64(dh)

	// ① homomorphic Q·Kᵀ on quantized data, live columns only.
	s := h.s
	st.addOps(hack.CausalMatMulTransBInto(s, qq, h.c.K, maskOffset, h.opts()))
	tensor.CausalSoftmax(s, maskOffset, scoreScale(dh))
	live := liveCells(s.Rows, maskOffset, s.Cols, 1)
	st.FloatOps += live + softmaxOps(live) // scale + softmax

	// ② homomorphic P·V: quantized part against VFull, FP16 (or
	// requantized) tail separately.
	nFull := h.c.VFull.Rows
	out := h.out.Reset(q.Rows, dh)
	liveFull := int64(0)
	if nFull > 0 {
		// P row i is query position row0+i and its columns are key
		// positions, so no draw depends on the prompt's length. The
		// quantizer reads P's first nFull columns in place.
		pq, err := quant.QuantizeCausalInto(h.pq, s, nFull, maskOffset, h.qCfg(h.keys.P, row0))
		if err != nil {
			return nil, err
		}
		h.pq = pq
		st.QuantOps += 2 * liveCells(s.Rows, maskOffset, nFull, h.cfg.Pi)
		liveFull = liveCells(s.Rows, maskOffset, nFull, 1)
		st.addOps(hack.CausalMatMulInto(h.pvOut, pq, h.c.VFull, maskOffset, h.opts()))
		out.Add(h.pvOut)
	}
	tail := h.c.TailMatrix()
	if tail.Rows > 0 {
		pTail := s.SliceColsInto(h.pTail, nFull, nFull+tail.Rows)
		out.Add(tensor.MatMulInto(h.tailOut, pTail, tail))
		st.FloatOps += 2 * (live - liveFull) * int64(dh)
		if !h.cfg.RequantizationElimination {
			// The ablation pays a dequantization of the partial block
			// to form the matrix we just multiplied.
			st.RequantOps += 2 * int64(tail.Rows) * int64(dh)
		}
	}
	return out, nil
}

// addOps folds a homomorphic product's op tally into s.
func (s *Stats) addOps(ops hack.Ops) {
	s.IntOps += ops.IntMACs
	s.ApproxOps += ops.ApproxFlops
	s.SumOps += ops.SumRecomputeOps
}

// Prefill implements Head. On a head restored over cached tokens it
// continues the prefill: q/k/v are the rows that follow them, and the
// causal mask lets query row i attend positions up to cached+i.
func (h *hackHead) Prefill(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	if err := h.c.AppendPrefill(k, v); err != nil {
		return nil, st, err
	}
	st.QuantOps += 2 * 2 * int64(k.Rows) * int64(k.Cols) // K and V quantization
	before := h.c.RequantOps
	out, err := h.attend(q, h.c.Len()-q.Rows, &st)
	st.RequantOps += h.c.RequantOps - before
	return out, st, err
}

func (h *hackHead) Decode(q, k, v *tensor.Matrix) (*tensor.Matrix, Stats, error) {
	var st Stats
	before := h.c.RequantOps
	if err := h.c.AppendToken(k.Row(0), v.Row(0)); err != nil {
		return nil, st, err
	}
	st.QuantOps += 2 * 2 * int64(k.Cols)
	out, err := h.attend(q, -1, &st)
	st.RequantOps += h.c.RequantOps - before
	st.KVBytesRead = int64(h.c.Usage().Total())
	return out, st, err
}

func (h *hackHead) Len() int                  { return h.c.Len() }
func (h *hackHead) CacheUsage() kvcache.Usage { return h.c.Usage() }
func (h *hackHead) WireSize() int             { return h.c.WireSize() }

// WireExporter is implemented by heads whose cache state can be shipped
// to a decode instance (⑦ in Fig. 5). Only the HACK backend exports:
// the baselines ship raw FP16 (netsim prices that path analytically) and
// are not served disaggregated by this runtime.
type WireExporter interface {
	// ExportWire returns the cache contents in wire form — quantized K
	// (token-major), quantized V (complete partitions) and the FP16 RQE
	// tail — plus an RNG draw count that is always 0: the quantizer
	// keeps no stream state for a restored head to catch up on. The
	// tensors are owned by the head: frame them before the next Decode
	// call mutates the cache.
	ExportWire() (k, v *quant.Tensor, tail *tensor.Matrix, rngDraws uint64, err error)
}

// ExportWire implements WireExporter.
func (h *hackHead) ExportWire() (*quant.Tensor, *quant.Tensor, *tensor.Matrix, uint64, error) {
	if err := h.cfg.transferable(); err != nil {
		return nil, nil, nil, 0, err
	}
	return h.c.K, h.c.VFull, h.c.VTail, 0, nil
}
