// Package kvcache implements the per-head KV caches of the systems under
// study:
//
//   - Cache: HACK's quantized cache (§5.3, §6). K is stored token-major
//     and quantized along the head dimension, so each appended token
//     forms its own partitions and old metadata never changes. V is
//     quantized along the sequence dimension; with requantization
//     elimination (RQE) the trailing partial partition lives in an FP16
//     side buffer until it fills, while the HACK/RQE ablation instead
//     requantizes the partial block on every append, accumulating error.
//   - FP16Cache: the disaggregation baseline, storing K and V in FP16.
//   - TokenQuantCache: the CacheGen/KVQuant-style cache — per-token
//     quantized K and V that must be dequantized before every use.
//
// All caches expose byte-accurate Usage accounting; the memory numbers in
// Table 5 and §7.4 derive from these.
package kvcache

import (
	"fmt"
	"math/rand"

	"github.com/hackkv/hack/internal/fp16"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// Usage breaks a cache's memory footprint down by component.
type Usage struct {
	// CodeBytes holds bit-packed quantized codes.
	CodeBytes int
	// MetaBytes holds FP16 min/scale pairs.
	MetaBytes int
	// SumBytes holds the summation-elimination cache (§5.3).
	SumBytes int
	// FP16Bytes holds unquantized FP16 payload: the whole cache for the
	// baseline, or just the trailing V block under RQE.
	FP16Bytes int
}

// Total returns the cache footprint in bytes.
func (u Usage) Total() int { return u.CodeBytes + u.MetaBytes + u.SumBytes + u.FP16Bytes }

func (u Usage) add(v Usage) Usage {
	return Usage{
		CodeBytes: u.CodeBytes + v.CodeBytes,
		MetaBytes: u.MetaBytes + v.MetaBytes,
		SumBytes:  u.SumBytes + v.SumBytes,
		FP16Bytes: u.FP16Bytes + v.FP16Bytes,
	}
}

// Config parameterizes a HACK cache for one attention head.
type Config struct {
	// HeadDim is d_h, the width of each K/V row.
	HeadDim int
	// Pi is the quantization partition size Π.
	Pi int
	// KVBits is the KV code width (2 in the paper's configuration).
	KVBits int
	// Rounding configures the quantizer. Under stochastic rounding K
	// and V round under the stream keys Keys.K and Keys.V
	// (quant.StreamKeys), each token at its absolute position, so a
	// token's codes depend on its values, its position and the keys —
	// never on what else the cache holds. RNG, when set, supplies the
	// keys instead: one seed drawn from it when the cache is built.
	Rounding quant.Rounding
	Keys     quant.Keys
	RNG      *rand.Rand
	// RQE enables requantization elimination for the trailing V block.
	// When false the partial block is requantized on every append,
	// reproducing the HACK/RQE ablation's extra cost and error.
	RQE bool
}

// withKeys resolves the stream keys a cache quantizes under.
func (c Config) withKeys() Config {
	if c.RNG != nil {
		c.Keys = quant.StreamKeys(c.RNG.Int63())
	}
	return c
}

// quantCfg is the quantizer configuration for one operand's rows
// starting at absolute position row0.
func (c Config) quantCfg(key uint64, row0 int) quant.Config {
	return quant.Config{Bits: c.KVBits, Partition: c.Pi, Rounding: c.Rounding, Key: key, Row0: row0}
}

func (c Config) validate() error {
	if c.HeadDim <= 0 {
		return fmt.Errorf("kvcache: head dim %d", c.HeadDim)
	}
	if c.Pi <= 0 {
		return fmt.Errorf("kvcache: partition %d", c.Pi)
	}
	if c.KVBits < 1 || c.KVBits > 8 {
		return fmt.Errorf("kvcache: kv bits %d", c.KVBits)
	}
	if c.Rounding == quant.StochasticRounding && c.RNG == nil && (c.Keys.K == 0 || c.Keys.V == 0) {
		return fmt.Errorf("kvcache: stochastic rounding requires stream keys or an RNG")
	}
	return nil
}

// Cache is HACK's per-head quantized KV cache.
type Cache struct {
	cfg Config
	// K holds every token's quantized key, token-major, partitioned
	// along the head dimension.
	K *quant.Tensor
	// VFull holds the quantized value rows for all *complete* partitions
	// (a multiple of Π rows), partitioned along the sequence dimension.
	VFull *quant.Tensor
	// VTail is the RQE side buffer: up to Π−1 FP16-rounded value rows
	// awaiting quantization. nil-length when empty. Only used when
	// cfg.RQE is true.
	VTail *tensor.Matrix
	// VTailQ is the HACK/RQE ablation's partial block: quantized codes
	// that get rebuilt (dequantize → extend → requantize) on every
	// append. Only used when cfg.RQE is false.
	VTailQ *quant.Tensor
	// Requants counts requantization events of the partial V block —
	// always zero with RQE enabled.
	Requants int
	// RequantOps tallies the floating-point work spent requantizing,
	// charged to the ablation's decode time.
	RequantOps int64
	// evicted counts the tokens EvictBlock has dropped; rows after them
	// keep the positions they were quantized at.
	evicted int

	// Per-append scratch, reused across tokens so the decode-time cache
	// ingest allocates only when a buffer grows past its high-water
	// mark: the FP16-rounded row copy, the single-row K quantization,
	// the completed-partition V quantization, and the dequantized tail
	// for TailMatrix in the HACK/RQE ablation.
	rowBuf    []float32
	kRowQ     *quant.Tensor
	vBlockQ   *quant.Tensor
	tailDeq   *tensor.Matrix
	emptyTail *tensor.Matrix
	// rowHdr is a reusable single-row matrix header wrapping rowBuf /
	// the incoming K row, so per-token appends allocate no headers.
	rowHdr tensor.Matrix
}

// New creates an empty HACK cache.
func New(cfg Config) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &Cache{
		cfg:   cfg.withKeys(),
		K:     quant.Empty(quant.AlongCols, cfg.HeadDim, cfg.KVBits, cfg.Pi),
		VFull: quant.Empty(quant.AlongRows, cfg.HeadDim, cfg.KVBits, cfg.Pi),
	}
	c.VTail = tensor.New(0, cfg.HeadDim)
	return c, nil
}

// Restore builds a cache around contents received from a prefill
// instance: the quantized K (token-major), the quantized V (complete
// partitions only), and the FP16 RQE tail. The cache takes ownership of
// all three. Every shape came off the wire, so all of them are checked
// against the configuration; only RQE caches restore (the ablation's
// requantized tail has no wire form).
func Restore(cfg Config, k, v *quant.Tensor, tail *tensor.Matrix) (*Cache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !cfg.RQE {
		return nil, fmt.Errorf("kvcache: restore requires RQE")
	}
	if k == nil || v == nil || tail == nil {
		return nil, fmt.Errorf("kvcache: restore with nil contents")
	}
	if k.Axis != quant.AlongCols || k.Cols != cfg.HeadDim || k.Bits != cfg.KVBits || k.Pi != cfg.Pi {
		return nil, fmt.Errorf("kvcache: restored K layout %v %dx%d bits=%d pi=%d vs config d_h=%d bits=%d pi=%d",
			k.Axis, k.Rows, k.Cols, k.Bits, k.Pi, cfg.HeadDim, cfg.KVBits, cfg.Pi)
	}
	if v.Axis != quant.AlongRows || v.Cols != cfg.HeadDim || v.Bits != cfg.KVBits || v.Pi != cfg.Pi {
		return nil, fmt.Errorf("kvcache: restored V layout %v %dx%d bits=%d pi=%d vs config d_h=%d bits=%d pi=%d",
			v.Axis, v.Rows, v.Cols, v.Bits, v.Pi, cfg.HeadDim, cfg.KVBits, cfg.Pi)
	}
	if v.Rows%cfg.Pi != 0 {
		return nil, fmt.Errorf("kvcache: restored V rows %d not a multiple of partition %d", v.Rows, cfg.Pi)
	}
	if tail.Cols != cfg.HeadDim || tail.Rows < 0 || tail.Rows >= cfg.Pi {
		return nil, fmt.Errorf("kvcache: restored tail %dx%d vs d_h=%d pi=%d",
			tail.Rows, tail.Cols, cfg.HeadDim, cfg.Pi)
	}
	if k.Rows != v.Rows+tail.Rows {
		return nil, fmt.Errorf("kvcache: restored token counts K %d vs V %d+%d", k.Rows, v.Rows, tail.Rows)
	}
	return &Cache{cfg: cfg.withKeys(), K: k, VFull: v, VTail: tail}, nil
}

// MustNew is New for configurations known to be valid.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return c
}

// Len returns the number of cached tokens.
func (c *Cache) Len() int {
	n := c.K.Rows
	return n
}

// NextPos returns the absolute position the next appended token takes:
// every token appended so far, evicted ones included, minus truncated
// ones. It equals Len unless blocks were evicted.
func (c *Cache) NextPos() int { return c.evicted + c.K.Rows }

// TailLen returns the number of V rows currently outside the quantized
// cache (in the FP16 buffer under RQE, or in the partial quantized block
// otherwise).
func (c *Cache) TailLen() int {
	if c.cfg.RQE {
		return c.VTail.Rows
	}
	if c.VTailQ == nil {
		return 0
	}
	return c.VTailQ.Rows
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// AppendPrefill ingests the prompt's K and V (L×d_h each) in bulk, as the
// prefill instance produces them. Complete V partitions are quantized
// immediately; the remainder enters the tail.
func (c *Cache) AppendPrefill(k, v *tensor.Matrix) error {
	if k.Rows != v.Rows || k.Cols != c.cfg.HeadDim || v.Cols != c.cfg.HeadDim {
		return fmt.Errorf("kvcache: prefill shapes K %dx%d V %dx%d, head dim %d",
			k.Rows, k.Cols, v.Rows, v.Cols, c.cfg.HeadDim)
	}
	kq, err := quant.Quantize(k, quant.AlongCols, c.cfg.quantCfg(c.cfg.Keys.K, c.NextPos()))
	if err != nil {
		return err
	}
	if err := c.K.AppendRows(kq); err != nil {
		return err
	}
	for i := 0; i < v.Rows; i++ {
		if err := c.appendVRow(v.Row(i)); err != nil {
			return err
		}
	}
	return nil
}

// AppendToken ingests one decode-step token's key and value rows (length
// d_h each).
func (c *Cache) AppendToken(kRow, vRow []float32) error {
	if len(kRow) != c.cfg.HeadDim || len(vRow) != c.cfg.HeadDim {
		return fmt.Errorf("kvcache: token rows %d/%d, head dim %d", len(kRow), len(vRow), c.cfg.HeadDim)
	}
	km := c.rowMatrix(kRow)
	kq, err := quant.QuantizeInto(c.kRowQ, km, quant.AlongCols, c.cfg.quantCfg(c.cfg.Keys.K, c.NextPos()))
	if err != nil {
		return err
	}
	c.kRowQ = kq
	if err := c.K.AppendRows(kq); err != nil {
		return err
	}
	return c.appendVRow(vRow)
}

// appendVRow routes a value row into the tail, flushing a completed
// partition into VFull.
func (c *Cache) appendVRow(vRow []float32) error {
	if c.cfg.RQE {
		// RQE: store the row in FP16 (as vLLM would) and quantize only
		// when the partition is complete — the values are quantized
		// exactly once, from their FP16 originals.
		rounded := c.roundedRow(vRow)
		c.VTail = tensor.AppendRows(c.VTail, c.rowMatrix(rounded))
		if c.VTail.Rows == c.cfg.Pi {
			blk, err := quant.QuantizeInto(c.vBlockQ, c.VTail, quant.AlongRows, c.vBlockCfg())
			if err != nil {
				return err
			}
			c.vBlockQ = blk
			if err := c.VFull.AppendRowBlocks(blk); err != nil {
				return err
			}
			// The tail buffer's storage is kept for the next partition.
			c.VTail.Reset(0, c.cfg.HeadDim)
		}
		return nil
	}

	// HACK/RQE ablation: dequantize the partial block, extend it with
	// the new row, requantize. Quantization error accumulates with each
	// round trip, and the work is charged to RequantOps.
	var block *tensor.Matrix
	if c.VTailQ != nil && c.VTailQ.Rows > 0 {
		block = c.VTailQ.Dequantize()
		c.RequantOps += c.VTailQ.DequantOps()
		c.Requants++
	} else {
		block = tensor.New(0, c.cfg.HeadDim)
	}
	rounded := c.roundedRow(vRow)
	block = tensor.AppendRows(block, c.rowMatrix(rounded))
	// Every pass over the block is a fresh rounding event: keying it by
	// the block's fill as well as its position keeps one row's repeated
	// requantizations from reusing one uniform.
	cfg := c.vBlockCfg()
	cfg.Key += uint64(block.Rows)
	bq, err := quant.Quantize(block, quant.AlongRows, cfg)
	if err != nil {
		return err
	}
	c.RequantOps += 2 * int64(block.Rows) * int64(block.Cols)
	if block.Rows == c.cfg.Pi {
		if err := c.VFull.AppendRowBlocks(bq); err != nil {
			return err
		}
		c.VTailQ = nil
		return nil
	}
	c.VTailQ = bq
	return nil
}

// vBlockCfg is the quantizer configuration of the open V partition,
// whose first row sits at the absolute position just past VFull.
func (c *Cache) vBlockCfg() quant.Config {
	return c.cfg.quantCfg(c.cfg.Keys.V, c.evicted+c.VFull.Rows)
}

// TailMatrix returns the trailing V rows as a dense matrix for the FP16
// multiplication path: the FP16 buffer under RQE, or the dequantized
// partial block for the ablation (which instead multiplies quantized —
// callers use TailQuantized then). The returned matrix is owned by the
// cache and valid until the next append or TailMatrix call.
func (c *Cache) TailMatrix() *tensor.Matrix {
	if c.cfg.RQE {
		return c.VTail
	}
	if c.VTailQ == nil || c.VTailQ.Rows == 0 {
		if c.emptyTail == nil {
			c.emptyTail = tensor.New(0, c.cfg.HeadDim)
		}
		return c.emptyTail
	}
	if c.tailDeq == nil {
		c.tailDeq = &tensor.Matrix{}
	}
	return c.VTailQ.DequantizeInto(c.tailDeq)
}

// rowMatrix wraps row as a 1×d_h matrix in the cache's reusable header.
// The header is only valid until the next rowMatrix call.
func (c *Cache) rowMatrix(row []float32) *tensor.Matrix {
	c.rowHdr = tensor.Matrix{Rows: 1, Cols: len(row), Data: row}
	return &c.rowHdr
}

// roundedRow copies vRow into the reusable row buffer and rounds it
// through FP16, modeling the FP16 store the cache performs on ingest.
func (c *Cache) roundedRow(vRow []float32) []float32 {
	if cap(c.rowBuf) < len(vRow) {
		c.rowBuf = make([]float32, len(vRow))
	}
	rounded := c.rowBuf[:len(vRow)]
	copy(rounded, vRow)
	fp16.RoundSlice(rounded)
	return rounded
}

// Usage reports the cache's memory footprint. The SE sums of K and V are
// included (they are what §7.4 prices at 2.2–2.7% of GPU memory), as is
// the RQE FP16 tail (0.24–0.51%).
func (c *Cache) Usage() Usage {
	u := tensorUsage(c.K, true).add(tensorUsage(c.VFull, true))
	if c.cfg.RQE {
		u.FP16Bytes += fp16.Bytes(c.VTail.Rows * c.VTail.Cols)
	} else if c.VTailQ != nil {
		u = u.add(tensorUsage(c.VTailQ, true))
	}
	return u
}

// WireSize returns the bytes the prefill instance transmits for this
// cache: packed codes plus FP16 min/scale metadata (⑦ in Fig. 5). Sums
// are recomputed on the decode side, and the FP16 tail rides along for
// RQE.
func (c *Cache) WireSize() int {
	n := c.K.Size(false).Total() + c.VFull.Size(false).Total()
	if c.cfg.RQE {
		n += fp16.Bytes(c.VTail.Rows * c.VTail.Cols)
	} else if c.VTailQ != nil {
		n += c.VTailQ.Size(false).Total()
	}
	return n
}

func tensorUsage(t *quant.Tensor, withSums bool) Usage {
	if t == nil {
		return Usage{}
	}
	s := t.Size(withSums)
	return Usage{CodeBytes: s.CodeBytes, MetaBytes: s.MetaBytes, SumBytes: s.SumBytes}
}

// FP16Cache is the baseline per-head cache holding K and V in half
// precision.
type FP16Cache struct {
	HeadDim int
	K, V    *tensor.Matrix // values rounded through FP16
	// kBuf/vBuf stage the FP16 rounding of each append and hBuf the
	// intermediate binary16 image, reused across tokens so decode-time
	// ingest stops allocating.
	kBuf, vBuf *tensor.Matrix
	hBuf       []fp16.Bits
}

// NewFP16 creates an empty baseline cache.
func NewFP16(headDim int) *FP16Cache {
	return &FP16Cache{HeadDim: headDim, K: tensor.New(0, headDim), V: tensor.New(0, headDim),
		kBuf: &tensor.Matrix{}, vBuf: &tensor.Matrix{}}
}

// Append adds k and v rows (bulk for prefill, single-row for decode).
func (c *FP16Cache) Append(k, v *tensor.Matrix) error {
	if k.Rows != v.Rows || k.Cols != c.HeadDim || v.Cols != c.HeadDim {
		return fmt.Errorf("kvcache: fp16 append shapes K %dx%d V %dx%d", k.Rows, k.Cols, v.Rows, v.Cols)
	}
	kk := c.roundThrough(c.kBuf, k)
	vv := c.roundThrough(c.vBuf, v)
	c.K = tensor.AppendRows(c.K, kk)
	c.V = tensor.AppendRows(c.V, vv)
	return nil
}

// roundThrough stages m through an actual binary16 image using the bulk
// converters — the store/load pair an FP16 cache performs — landing the
// widened values in dst.
func (c *FP16Cache) roundThrough(dst *tensor.Matrix, m *tensor.Matrix) *tensor.Matrix {
	c.hBuf = fp16.FromFloat32Slice(c.hBuf, m.Data)
	dst.Data = fp16.ToFloat32Slice(dst.Data, c.hBuf)
	dst.Rows, dst.Cols = m.Rows, m.Cols
	return dst
}

// Len returns the number of cached tokens.
func (c *FP16Cache) Len() int { return c.K.Rows }

// Usage reports the FP16 footprint.
func (c *FP16Cache) Usage() Usage {
	return Usage{FP16Bytes: fp16.Bytes(len(c.K.Data) + len(c.V.Data))}
}

// WireSize returns the FP16 transfer size of the cache.
func (c *FP16Cache) WireSize() int { return c.Usage().Total() }

// TokenQuantCache is the CacheGen/KVQuant-style cache: K and V both
// quantized per token (partitions along the head dimension), so appends
// never requantize — but every use requires a full dequantization pass.
type TokenQuantCache struct {
	cfg  Config
	K, V *quant.Tensor
	// DequantOpsTotal tallies the dequantization work performed via
	// DequantizeKV, the overhead HACK eliminates.
	DequantOpsTotal int64
	// kq/vq stage each append's quantization, reused across tokens.
	kq, vq *quant.Tensor
}

// NewTokenQuant creates an empty baseline-quantization cache.
func NewTokenQuant(cfg Config) (*TokenQuantCache, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	return &TokenQuantCache{
		cfg: cfg.withKeys(),
		K:   quant.Empty(quant.AlongCols, cfg.HeadDim, cfg.KVBits, cfg.Pi),
		V:   quant.Empty(quant.AlongCols, cfg.HeadDim, cfg.KVBits, cfg.Pi),
	}, nil
}

// Append quantizes and stores k and v rows.
func (c *TokenQuantCache) Append(k, v *tensor.Matrix) error {
	if k.Rows != v.Rows || k.Cols != c.cfg.HeadDim || v.Cols != c.cfg.HeadDim {
		return fmt.Errorf("kvcache: quant append shapes K %dx%d V %dx%d", k.Rows, k.Cols, v.Rows, v.Cols)
	}
	kq, err := quant.QuantizeInto(c.kq, k, quant.AlongCols, c.cfg.quantCfg(c.cfg.Keys.K, c.K.Rows))
	if err != nil {
		return err
	}
	c.kq = kq
	vq, err := quant.QuantizeInto(c.vq, v, quant.AlongCols, c.cfg.quantCfg(c.cfg.Keys.V, c.V.Rows))
	if err != nil {
		return err
	}
	c.vq = vq
	if err := c.K.AppendRows(kq); err != nil {
		return err
	}
	return c.V.AppendRows(vq)
}

// DequantizeKV materializes the full K and V in FP16 precision — the
// per-iteration step whose cost motivates HACK.
func (c *TokenQuantCache) DequantizeKV() (k, v *tensor.Matrix) {
	return c.DequantizeKVInto(&tensor.Matrix{}, &tensor.Matrix{})
}

// DequantizeKVInto is DequantizeKV into caller-owned destinations, the
// allocation-free path the dequant backends take every decode step.
func (c *TokenQuantCache) DequantizeKVInto(dk, dv *tensor.Matrix) (k, v *tensor.Matrix) {
	k = c.K.DequantizeInto(dk)
	v = c.V.DequantizeInto(dv)
	c.DequantOpsTotal += c.K.DequantOps() + c.V.DequantOps()
	return k, v
}

// Len returns the number of cached tokens.
func (c *TokenQuantCache) Len() int { return c.K.Rows }

// Usage reports the quantized footprint (no SE sums: these baselines do
// not keep them).
func (c *TokenQuantCache) Usage() Usage {
	return tensorUsage(c.K, false).add(tensorUsage(c.V, false))
}

// WireSize returns the transfer size of the quantized cache.
func (c *TokenQuantCache) WireSize() int { return c.Usage().Total() }

// EvictBlock removes quantized partition block b — Π whole tokens — from
// the cache: the V block and the matching K rows. Block granularity is
// what keeps eviction compatible with HACK's layouts (the §9 future-work
// combination): K rows are per-token partitions, and V can only drop
// aligned Π-row groups without requantizing its neighbours. The FP16
// tail is never evicted (it holds the most recent tokens).
func (c *Cache) EvictBlock(b int) error {
	if c.VFull == nil || b < 0 || b >= c.VFull.NBlocks {
		return fmt.Errorf("kvcache: evict block %d of %d", b, c.vFullBlocks())
	}
	lo := b * c.cfg.Pi
	hi := lo + c.cfg.Pi
	if err := c.VFull.RemoveRowBlock(b); err != nil {
		return err
	}
	if err := c.K.RemoveRows(lo, hi); err != nil {
		return err
	}
	c.evicted += c.cfg.Pi
	return nil
}

// vFullBlocks returns the number of complete quantized V blocks.
func (c *Cache) vFullBlocks() int {
	if c.VFull == nil {
		return 0
	}
	return c.VFull.NBlocks
}
