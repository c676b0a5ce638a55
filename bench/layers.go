package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"time"

	"github.com/hackkv/hack/internal/api"
	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/cluster"
	hackcore "github.com/hackkv/hack/internal/hack"
	"github.com/hackkv/hack/internal/kvcache"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/serve"
	"github.com/hackkv/hack/internal/tensor"
)

// The per-layer timings below call one layer's public functions in a
// loop, alone on the machine, and report the median call. They say what
// a layer costs, not what a request spends in it (the spans do that);
// a change to a layer should move its number here, and the end-to-end
// metric README.md names for it.

// medianSeconds times f reps times and returns the median.
func medianSeconds(reps int, f func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = time.Since(t0).Seconds()
	}
	return Median(ts)
}

// methodKeys maps the per-layer metric infix to the method registry's
// name: HACK and the paper's two baselines.
var methodKeys = []struct{ key, method string }{
	{"hack", MethodHACK}, {"kvquant", MethodKVQuant}, {"fp16", MethodFP16},
}

func backendFor(method string, seed int64) (attention.Backend, error) {
	prof, err := cluster.MethodRegistry.Lookup(method)
	if err != nil {
		return nil, err
	}
	return serve.BackendForMethod(prof, 0)(seed)
}

func randomMatrix(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

const decodeSteps = 32

// layerMetrics appends the model, attention, hack, quant, kvcache and
// netsim metrics.
func layerMetrics(r *Result) error {
	rng := rand.New(rand.NewSource(datasetSeed))
	m, err := model.NewTransformer(model.Toy(), 0)
	if err != nil {
		return err
	}
	spec := m.Spec()

	// api: the tokenizer shim on a 1000-token text.
	tok := api.NewTokenizer(spec.Vocab)
	ids := randomTokens(rng, 1000)
	text := tok.Decode(ids)
	r.add("api.encode_us_per_ktok", medianSeconds(9, func() { _ = tok.Encode(text) })*1e6, "us")
	r.add("api.delta_ns_per_tok", medianSeconds(9, func() {
		for i, id := range ids {
			_ = tok.Delta(id, i)
		}
	})*1e9/float64(len(ids)), "ns")

	// model: Session.Prefill at three prompt lengths, Session.Decode at
	// the context each leaves behind.
	var sess *model.Session
	for _, L := range []int{128, 512, 1024} {
		prompt := randomTokens(rng, L)
		var tok int
		var perr error
		prefill := medianSeconds(3, func() {
			var b attention.Backend
			if b, perr = backendFor(MethodHACK, 1); perr != nil {
				return
			}
			if sess, perr = m.NewSession(b); perr == nil {
				tok, perr = sess.Prefill(prompt)
			}
		})
		if perr != nil {
			return perr
		}
		r.add(fmt.Sprintf("model.prefill_ms.L%d", L), prefill*1e3, "ms")
		decode := medianSeconds(decodeSteps, func() { tok, perr = sess.Decode(tok) })
		if perr != nil {
			return perr
		}
		r.add(fmt.Sprintf("model.decode_us.ctx%d", L), decode*1e6, "us")
	}

	// attention: one head of each method on random activations.
	dh := spec.HeadDim
	for _, mk := range methodKeys {
		b, err := backendFor(mk.method, 1)
		if err != nil {
			return err
		}
		q, k, v := randomMatrix(rng, 512, dh), randomMatrix(rng, 512, dh), randomMatrix(rng, 512, dh)
		var herr error
		prefill := medianSeconds(3, func() {
			var h attention.Head
			if h, herr = b.NewHead(dh); herr == nil {
				_, _, herr = h.Prefill(q, k, v)
			}
		})
		if herr != nil {
			return herr
		}
		r.add("attention."+mk.key+".prefill_ms.L512", prefill*1e3, "ms")
		h, err := b.NewHead(dh)
		if err != nil {
			return err
		}
		if _, _, err := h.Prefill(randomMatrix(rng, 1024, dh), randomMatrix(rng, 1024, dh), randomMatrix(rng, 1024, dh)); err != nil {
			return err
		}
		q1, k1, v1 := randomMatrix(rng, 1, dh), randomMatrix(rng, 1, dh), randomMatrix(rng, 1, dh)
		_, st, err := h.Decode(q1, k1, v1)
		if err != nil {
			return err
		}
		decode := medianSeconds(decodeSteps, func() { _, _, herr = h.Decode(q1, k1, v1) })
		if herr != nil {
			return herr
		}
		r.add("attention."+mk.key+".decode_us.ctx1024", decode*1e6, "us")
		ops := st.FloatOps + st.IntOps + st.QuantOps + st.DequantOps + st.ApproxOps + st.SumOps + st.RequantOps
		r.add("attention."+mk.key+".decode_ops", float64(ops), "count")
	}

	// hack: the two homomorphic products at the served head shape —
	// q·Kᵀ of a decode step at context 1024, P·V of a 512-token prefill.
	cfg := attention.DefaultHACKConfig(1)
	q8 := quant.Config{Bits: cfg.QBits, Partition: cfg.Pi, Rounding: quant.NearestRounding}
	kv2 := quant.Config{Bits: cfg.KVBits, Partition: cfg.Pi, Rounding: quant.NearestRounding}
	qq, err := quant.Quantize(randomMatrix(rng, 1, dh), quant.AlongCols, q8)
	if err != nil {
		return err
	}
	kq, err := quant.Quantize(randomMatrix(rng, 1024, dh), quant.AlongCols, kv2)
	if err != nil {
		return err
	}
	dst := &tensor.Matrix{}
	opt := hackcore.DefaultOptions()
	var ops hackcore.Ops
	r.add("hack.matmul_transb_us.decode", medianSeconds(256, func() { ops = hackcore.MatMulTransBInto(dst, qq, kq, opt) })*1e6, "us")
	r.add("hack.int_ops_per_call", float64(ops.IntMACs), "count")
	// Computed from tensor sizes: both operands' codes, metadata and
	// sums as held in memory, plus the float32 product.
	moved := tensorBytes(qq) + tensorBytes(kq) + 4*qq.Rows*kq.Rows
	r.add("hack.bytes_moved_per_call", float64(moved), "B")
	pq, err := quant.Quantize(randomMatrix(rng, 512, 512), quant.AlongCols, q8)
	if err != nil {
		return err
	}
	vq, err := quant.Quantize(randomMatrix(rng, 512, dh), quant.AlongRows, kv2)
	if err != nil {
		return err
	}
	r.add("hack.matmul_us.prefill", medianSeconds(5, func() { hackcore.MatMulInto(dst, pq, vq, opt) })*1e6, "us")

	// quant: K and V of one head, 1024 tokens, under stochastic rounding;
	// dequantization is the baselines' cost, absent from the HACK path.
	kv2s := kv2
	kv2s.Rounding, kv2s.RNG = quant.StochasticRounding, rand.New(rand.NewSource(1))
	km, vm := randomMatrix(rng, 1024, dh), randomMatrix(rng, 1024, dh)
	var kt, vt *quant.Tensor
	var qerr error
	quantize := medianSeconds(5, func() {
		if kt, qerr = quant.QuantizeInto(kt, km, quant.AlongCols, kv2s); qerr == nil {
			vt, qerr = quant.QuantizeInto(vt, vm, quant.AlongRows, kv2s)
		}
	})
	if qerr != nil {
		return qerr
	}
	r.add("quant.quantize_us_per_ktok", quantize*1e6/1.024, "us")
	dk, dv := &tensor.Matrix{}, &tensor.Matrix{}
	r.add("quant.dequantize_us_per_ktok", medianSeconds(5, func() { kt.DequantizeInto(dk); vt.DequantizeInto(dv) })*1e6/1.024, "us")

	return cacheAndFrameMetrics(r, m, sess)
}

// tensorBytes is a quantized tensor's footprint in memory: one byte per
// code, float32 min and scale, int32 sums.
func tensorBytes(t *quant.Tensor) int {
	return len(t.Codes) + 4*(len(t.Min)+len(t.Scale)+len(t.Sums))
}

// cacheAndFrameMetrics measures the KV path on sess, a HACK session
// holding a 1024-token prompt plus the decode steps after it: append,
// export, frame, unframe, restore, and the prefix index.
func cacheAndFrameMetrics(r *Result, m *model.Transformer, sess *model.Session) error {
	spec := m.Spec()
	tokens := float64(sess.Len())
	ktok := tokens / 1000

	// Export and frame every head, then unframe and restore them.
	type shipped struct {
		fr    *netsim.KVFrame
		bytes []byte
	}
	var heads []shipped
	var err error
	export := medianSeconds(5, func() {
		heads = heads[:0]
		for l := 0; l < spec.Layers && err == nil; l++ {
			for h := 0; h < spec.Heads && err == nil; h++ {
				var k, v *quant.Tensor
				var tail *tensor.Matrix
				var draws uint64
				if k, v, tail, draws, err = sess.Head(l, h).(attention.WireExporter).ExportWire(); err != nil {
					return
				}
				var fr *netsim.KVFrame
				if fr, err = netsim.FrameFromTensors(1, l, h, 0, k, v, tail.Data); err == nil {
					fr.RNGDraws = draws
					heads = append(heads, shipped{fr: fr})
				}
			}
		}
	})
	if err != nil {
		return err
	}
	r.add("kvcache.export_us_per_ktok", export*1e6/ktok, "us")

	var wireBytes, overhead int
	encode := medianSeconds(5, func() {
		wireBytes = 0
		for i := range heads {
			var buf bytes.Buffer
			if _, err = heads[i].fr.WriteTo(&buf); err != nil {
				return
			}
			heads[i].bytes = buf.Bytes()
			wireBytes += buf.Len()
		}
	})
	if err != nil {
		return err
	}
	for _, h := range heads {
		f := h.fr
		payload := len(f.KCodes) + len(f.VCodes) + 2*(len(f.KMin)+len(f.KScale)+len(f.VMin)+len(f.VScale)+len(f.Tail))
		overhead += len(h.bytes) - payload
	}
	mb := float64(wireBytes) / 1e6
	r.add("netsim.frame_encode_us_per_mb", encode*1e6/mb, "us")
	decoded := make([]netsim.KVFrame, len(heads))
	decode := medianSeconds(5, func() {
		for i := range heads {
			decoded[i] = netsim.KVFrame{}
			if _, err = decoded[i].ReadFrom(bytes.NewReader(heads[i].bytes)); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	r.add("netsim.frame_decode_us_per_mb", decode*1e6/mb, "us")
	r.add("netsim.frame_overhead_bytes", float64(overhead)/float64(len(heads)), "B")

	b, err := backendFor(MethodHACK, 1)
	if err != nil {
		return err
	}
	restore := medianSeconds(5, func() {
		for i := range decoded {
			var k, v *quant.Tensor
			var tail *tensor.Matrix
			if k, v, tail, err = decoded[i].Tensors(); err != nil {
				return
			}
			if _, err = b.(*attention.HACKBackend).RestoreHead(spec.HeadDim, k, v, tail, decoded[i].RNGDraws); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	r.add("kvcache.restore_us_per_ktok", restore*1e6/ktok, "us")
	r.add("kvcache.wire_bytes_per_token", float64(wireBytes)/tokens, "B")
	r.add("kvcache.resident_bytes_per_token", float64(sess.CacheUsageTotal())/tokens, "B")
	r.add("kvcache.wire_ratio_vs_fp16", float64(spec.KVBytesPerTokenFP16())*tokens/float64(wireBytes), "ratio")

	// One more token into one head's cache: a decode step's append.
	rng := rand.New(rand.NewSource(2))
	hc := attention.DefaultHACKConfig(1)
	cache, err := kvcache.New(kvcache.Config{HeadDim: spec.HeadDim, Pi: hc.Pi, KVBits: hc.KVBits,
		Rounding: hc.Rounding, RNG: rand.New(rand.NewSource(1)), RQE: true})
	if err != nil {
		return err
	}
	if err := cache.AppendPrefill(randomMatrix(rng, 512, spec.HeadDim), randomMatrix(rng, 512, spec.HeadDim)); err != nil {
		return err
	}
	kRow, vRow := randomMatrix(rng, 1, spec.HeadDim).Data, randomMatrix(rng, 1, spec.HeadDim).Data
	r.add("kvcache.append_token_ns", medianSeconds(256, func() { err = cache.AppendToken(kRow, vRow) })*1e9, "ns")
	if err != nil {
		return err
	}
	return prefixIndexMetrics(r, m)
}

// prefixIndexMetrics times the prefix tier's two operations on one
// shared prefix: inserting its pages (export and framing included) and
// looking them up again.
func prefixIndexMetrics(r *Result, m *model.Transformer) error {
	spec := m.Spec()
	prof, err := cluster.MethodRegistry.Lookup(MethodHACK)
	if err != nil {
		return err
	}
	factory, err := serve.PrefixBackendForMethod(prof, 0)
	if err != nil {
		return err
	}
	b, err := factory(1)
	if err != nil {
		return err
	}
	pi, _, err := b.(attention.PrefixBackend).PrefixLayout()
	if err != nil {
		return err
	}
	sess, err := m.NewSession(b)
	if err != nil {
		return err
	}
	prompt := randomTokens(rand.New(rand.NewSource(3)), PrefixTokens+1)
	if _, err := sess.Prefill(prompt); err != nil {
		return err
	}
	build := func(lo, hi int) ([]*netsim.KVFrame, error) { return prefixPageFrames(sess, spec, lo, hi) }
	var tier serve.PrefixCacheBackend
	insert := medianSeconds(5, func() {
		// bytesPerToken only feeds the budget, which is never reached.
		if tier, err = serve.NewPrefixCache(1<<30, pi, pi, 128); err == nil {
			_, err = tier.Insert(1, prompt, PrefixTokens, build)
		}
	})
	if err != nil {
		return err
	}
	r.add("kvcache.prefix_insert_us", insert*1e6, "us")
	lookup := medianSeconds(32, func() {
		var match *serve.PrefixMatch
		if match, err = tier.Lookup(1, prompt, PrefixTokens); err == nil {
			match.Release()
		}
	})
	if err != nil {
		return err
	}
	r.add("kvcache.prefix_lookup_us", lookup*1e6, "us")
	return nil
}
