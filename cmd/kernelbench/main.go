// Command kernelbench measures the homomorphic kernel hot paths — the
// packed/tiled/SIMD fast kernels against the retained scalar reference,
// the quantizer, and the end-to-end attention decode step — and writes
// the results to BENCH_kernels.json so the kernel performance trajectory
// is tracked in-repo from PR to PR.
//
// Usage:
//
//	go run ./cmd/kernelbench [-o BENCH_kernels.json] [-quick]
//
// The shapes mirror internal/hack/bench_test.go: decode-shaped Q·Kᵀ
// (1×128 · 4096×128ᵀ) and prefill-shaped P·V (256×2048 · 2048×128) at
// Π=32 and Π=128; the causal softmax and SiLU run at the served prefill
// shape against their scalar math.Exp loops. The JSON records ns/op,
// bytes/op and allocs/op per benchmark plus the fast-over-scalar speedups
// the acceptance targets track (≥3× decode, ≥2× prefill).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/hack"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// Result is one benchmark's measurement.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// Report is the BENCH_kernels.json schema.
type Report struct {
	// Host context: speedups are comparable across runs on the same
	// class of machine; absolute ns/op are not portable.
	GoVersion  string   `json:"go_version"`
	GOARCH     string   `json:"goarch"`
	NumCPU     int      `json:"num_cpu"`
	Benchmarks []Result `json:"benchmarks"`
	// Speedups are fast-kernel time over scalar-reference time for the
	// same operands.
	Speedups map[string]float64 `json:"speedups_vs_scalar"`
}

func quantize(rng *rand.Rand, rows, cols, bits, pi int, axis quant.Axis) *quant.Tensor {
	return quant.MustQuantize(tensor.RandNormal(rng, rows, cols, 1), axis,
		quant.Config{Bits: bits, Partition: pi, Rounding: quant.NearestRounding})
}

func measure(name string, fn func(b *testing.B)) Result {
	r := testing.Benchmark(fn)
	return Result{
		Name:        name,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

func main() {
	out := flag.String("o", "BENCH_kernels.json", "output path")
	quick := flag.Bool("quick", false, "smaller operands for a fast smoke run")
	flag.Parse()

	decodeL, prefillM, prefillZ := 4096, 256, 2048
	attnL := 2048
	if *quick {
		decodeL, prefillM, prefillZ, attnL = 512, 32, 256, 256
	}

	rep := Report{
		GoVersion: runtime.Version(),
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Speedups:  map[string]float64{},
	}
	add := func(r Result) Result {
		rep.Benchmarks = append(rep.Benchmarks, r)
		fmt.Printf("%-42s %12.0f ns/op %10d B/op %6d allocs/op\n",
			r.Name, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		return r
	}

	opt := hack.DefaultOptions()
	for _, pi := range []int{32, 128} {
		rng := rand.New(rand.NewSource(1))
		a := quantize(rng, 1, 128, 8, pi, quant.AlongCols)
		kT := quantize(rng, decodeL, 128, 2, pi, quant.AlongCols)
		dst := &tensor.Matrix{}
		fast := add(measure(fmt.Sprintf("MatMulTransB/decode_1x128x%d/pi%d", decodeL, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulTransBInto(dst, a, kT, opt)
			}
		}))
		scalar := add(measure(fmt.Sprintf("MatMulTransBScalar/decode_1x128x%d/pi%d", decodeL, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulTransBScalar(a, kT, opt)
			}
		}))
		rep.Speedups[fmt.Sprintf("decode_pi%d", pi)] = scalar.NsPerOp / fast.NsPerOp
	}

	// The served decode shape: the Toy model's d_h 32 head at Π 64 over
	// a 1024-token context. d_h < Π makes Q·Kᵀ one partial partition per
	// row (the blocked tile's single-partition path), and the P·V row runs
	// the paired-row sweep. The operands do not shrink under -quick, so
	// the speedups compare across both modes.
	{
		const l, dh, pi = 1024, 32, 64
		rng := rand.New(rand.NewSource(7))
		q := quantize(rng, 1, dh, 8, pi, quant.AlongCols)
		kT := quantize(rng, l, dh, 2, pi, quant.AlongCols)
		p := quantize(rng, 1, l, 8, pi, quant.AlongCols)
		v := quantize(rng, l, dh, 2, pi, quant.AlongRows)
		dst := &tensor.Matrix{}
		fast := add(measure(fmt.Sprintf("MatMulTransB/decode_1x%dx%d/pi%d", dh, l, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulTransBInto(dst, q, kT, opt)
			}
		}))
		scalar := add(measure(fmt.Sprintf("MatMulTransBScalar/decode_1x%dx%d/pi%d", dh, l, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulTransBScalar(q, kT, opt)
			}
		}))
		rep.Speedups["decode_qk_dh32_pi64"] = scalar.NsPerOp / fast.NsPerOp
		fast = add(measure(fmt.Sprintf("MatMul/decode_1x%dx%d/pi%d", l, dh, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulInto(dst, p, v, opt)
			}
		}))
		scalar = add(measure(fmt.Sprintf("MatMulScalar/decode_1x%dx%d/pi%d", l, dh, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulScalar(p, v, opt)
			}
		}))
		rep.Speedups["decode_pv_dh32_pi64"] = scalar.NsPerOp / fast.NsPerOp
	}

	// The multi-row kernel tile: scoring k query rows against a long
	// cache in one k-row Q·Kᵀ call versus k single-row calls over the
	// same cache. The k-row call takes the column-outer tiling and the
	// register-blocked multi-row MADD kernels (verifyTile), so each loaded
	// cache row is scored against every resident query row. The speedup
	// is one k-row call over k singles. Π is 64, so a 128-wide row spans
	// two partitions: rows of one partition take the single-row path at
	// any row count.
	{
		const k = 8
		pi := 64
		rng := rand.New(rand.NewSource(6))
		qs := quantize(rng, k, 128, 8, pi, quant.AlongCols)
		kT := quantize(rng, decodeL, 128, 2, pi, quant.AlongCols)
		rows := make([]*quant.Tensor, k)
		for i := range rows {
			var err error
			rows[i], err = qs.SliceRows(i, i+1)
			if err != nil {
				log.Fatal(err)
			}
		}
		dst := &tensor.Matrix{}
		batch := add(measure(fmt.Sprintf("MultiRowQK/batch_%dx128x%d/pi%d", k, decodeL, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulTransBInto(dst, qs, kT, opt)
			}
		}))
		single := add(measure(fmt.Sprintf("MultiRowQK/%dx_single_1x128x%d/pi%d", k, decodeL, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, q := range rows {
					hack.MatMulTransBInto(dst, q, kT, opt)
				}
			}
		}))
		rep.Speedups["multirow_qk_pi64"] = single.NsPerOp / batch.NsPerOp
	}

	for _, pi := range []int{32, 128} {
		rng := rand.New(rand.NewSource(2))
		p := quantize(rng, prefillM, prefillZ, 8, pi, quant.AlongCols)
		v := quantize(rng, prefillZ, 128, 2, pi, quant.AlongRows)
		dst := &tensor.Matrix{}
		fast := add(measure(fmt.Sprintf("MatMul/prefill_%dx%dx128/pi%d", prefillM, prefillZ, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulInto(dst, p, v, opt)
			}
		}))
		scalar := add(measure(fmt.Sprintf("MatMulScalar/prefill_%dx%dx128/pi%d", prefillM, prefillZ, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hack.MatMulScalar(p, v, opt)
			}
		}))
		rep.Speedups[fmt.Sprintf("prefill_pi%d", pi)] = scalar.NsPerOp / fast.NsPerOp
	}

	// The quantizer as HACK runs it: keyed stochastic rounding of Q and K
	// along columns, of V along rows, and of a prefill's causal P — the
	// Π-aligned columns of a 394-token score matrix, past-diagonal
	// partitions skipped.
	keys := quant.StreamKeys(3)
	for _, bench := range []struct {
		name     string
		bits, pi int
		key      uint64
		axis     quant.Axis
	}{
		{"Quantize/Q_512x128_8bit/pi32", 8, 32, keys.Q, quant.AlongCols},
		{"Quantize/K_512x128_2bit/pi128", 2, 128, keys.K, quant.AlongCols},
		{"Quantize/V_rows_512x128_2bit/pi64", 2, 64, keys.V, quant.AlongRows},
	} {
		bench := bench
		rng := rand.New(rand.NewSource(3))
		m := tensor.RandNormal(rng, 512, 128, 1)
		cfg := quant.Config{Bits: bench.bits, Partition: bench.pi, Key: bench.key}
		var qt *quant.Tensor
		add(measure(bench.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				qt, err = quant.QuantizeInto(qt, m, bench.axis, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
		}))
	}
	{
		const l, pi = 394, 64
		s := tensor.CausalSoftmax(tensor.RandNormal(rand.New(rand.NewSource(3)), l, l, 1), 0, 1)
		cfg := quant.Config{Bits: 8, Partition: pi, Key: keys.P}
		var qt *quant.Tensor
		add(measure(fmt.Sprintf("Quantize/P_causal_%dx%d_8bit/pi%d", l, l, pi), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				qt, err = quant.QuantizeCausalInto(qt, s, l/pi*pi, 0, cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
		}))
	}

	// The float elementwise kernels of a served prefill: the causal
	// softmax of one head's 394-token score matrix, and SiLU over the Toy
	// model's 394×128 MLP activations, each against the scalar math.Exp
	// loop it replaced. The operands do not shrink under -quick.
	{
		const l, mlp = 394, 128
		scores := tensor.RandNormal(rand.New(rand.NewSource(8)), l, l, 1)
		fast := add(measure(fmt.Sprintf("Softmax/causal_%dx%d", l, l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tensor.CausalSoftmax(scores, 0, 1)
			}
		}))
		scalar := add(measure(fmt.Sprintf("SoftmaxScalar/causal_%dx%d", l, l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				causalSoftmaxScalar(scores)
			}
		}))
		rep.Speedups["softmax_causal_394"] = scalar.NsPerOp / fast.NsPerOp

		act := tensor.RandNormal(rand.New(rand.NewSource(9)), l, mlp, 1)
		x := tensor.New(l, mlp)
		fast = add(measure(fmt.Sprintf("SiLU/%dx%d", l, mlp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(x.Data, act.Data)
				tensor.SiLU(x)
			}
		}))
		scalar = add(measure(fmt.Sprintf("SiLUScalar/%dx%d", l, mlp), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				copy(x.Data, act.Data)
				siluScalar(x.Data)
			}
		}))
		rep.Speedups["silu_394x128"] = scalar.NsPerOp / fast.NsPerOp
	}

	add(measure(fmt.Sprintf("AttentionDecode/HACK_L%d/pi64", attnL), benchAttention(func() (attention.Backend, error) {
		return attention.NewHACK(attention.DefaultHACKConfig(11))
	}, 128, attnL)))
	add(measure(fmt.Sprintf("AttentionDecode/CacheGen_L%d", attnL), benchAttention(func() (attention.Backend, error) {
		return attention.NewDequant(attention.DequantConfig{MethodName: "CacheGen", Pi: 96, KVBits: 2,
			Rounding: quant.StochasticRounding, Seed: 12, WireFactor: 0.9})
	}, 128, attnL)))
	// HACK's decode step against FP16's at the served head width.
	add(measure("AttentionDecode/HACK_d32_L1024/pi64", benchAttention(func() (attention.Backend, error) {
		return attention.NewHACK(attention.DefaultHACKConfig(11))
	}, 32, 1024)))
	add(measure("AttentionDecode/FP16_d32_L1024", benchAttention(func() (attention.Backend, error) {
		return attention.FP16Backend{}, nil
	}, 32, 1024)))

	// Shared-prefix prefill skip: a cold prefill over the whole prompt
	// versus restoring the leading 3/4 from cached pages and resuming
	// over the suffix. Caching a fixed fraction keeps the ratio
	// comparable between -quick and full operand sizes.
	{
		cached := attnL / 4 * 3
		coldR, warmR := benchPrefixPrefill(attnL, cached)
		cold := add(coldR)
		warm := add(warmR)
		rep.Speedups["prefix_warm_prefill"] = cold.NsPerOp / warm.NsPerOp
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(&rep); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nspeedups vs scalar: decode pi128 %.2fx, pi32 %.2fx; prefill pi128 %.2fx, pi32 %.2fx; multi-row tile %.2fx; softmax %.2fx; silu %.2fx\n",
		rep.Speedups["decode_pi128"], rep.Speedups["decode_pi32"],
		rep.Speedups["prefill_pi128"], rep.Speedups["prefill_pi32"],
		rep.Speedups["multirow_qk_pi64"], rep.Speedups["softmax_causal_394"], rep.Speedups["silu_394x128"])
	fmt.Printf("wrote %s\n", *out)
}

// causalSoftmaxScalar is tensor.CausalSoftmax (offset 0, scale 1) as
// scalar loops over math.Exp: the reference its vector kernels reproduce
// bit for bit. Repeated in place, every row stays a softmax input in the
// vector exp's domain, so both sides time the same work each iteration.
func causalSoftmaxScalar(m *tensor.Matrix) {
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		live := row[:i+1]
		maxv := float32(math.Inf(-1))
		for _, v := range live {
			if v > maxv {
				maxv = v
			}
		}
		var sum float32
		for j, v := range live {
			e := float32(math.Exp(float64(v - maxv)))
			live[j] = e
			sum += e
		}
		inv := 1 / sum
		for j := range live {
			live[j] *= inv
		}
		clear(row[len(live):])
	}
}

// siluScalar is tensor.SiLU as the scalar math.Exp loop.
func siluScalar(x []float32) {
	for i, v := range x {
		x[i] = v / float32(1+math.Exp(float64(-v)))
	}
}

// benchPrefixPrefill measures the shared-prefix warm path against the
// cold one at the head level: cold prefills all l tokens; warm restores
// the first cached tokens from exported pages and resumes over the
// suffix. Both use the same backend, so the ratio is the per-head TTFT
// saving a cache hit buys.
func benchPrefixPrefill(l, cached int) (cold, warm Result) {
	backend, err := attention.NewHACK(attention.DefaultHACKConfig(13))
	if err != nil {
		log.Fatal(err)
	}
	mk := func() attention.Head {
		h, err := backend.NewHead(128)
		if err != nil {
			log.Fatal(err)
		}
		return h
	}
	rng := rand.New(rand.NewSource(5))
	q := tensor.RandNormal(rng, l, 128, 1)
	k := tensor.RandNormal(rng, l, 128, 1)
	v := tensor.RandNormal(rng, l, 128, 1)

	cold = measure(fmt.Sprintf("PrefixPrefill/cold_L%d/pi64", l), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, _, err := mk().Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})

	donor := mk()
	if _, _, err := donor.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
		log.Fatal(err)
	}
	pk, pv, err := donor.(attention.PrefixPageExporter).ExportPrefixPages(0, cached)
	if err != nil {
		log.Fatal(err)
	}
	sq, sk, sv := sliceRows(q, cached, l), sliceRows(k, cached, l), sliceRows(v, cached, l)
	warm = measure(fmt.Sprintf("PrefixPrefill/warm_L%d_cached%d/pi64", l, cached), func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Restore consumes its page tensors (resume appends to
			// them), so clone per iteration — exactly what a real hit
			// does when it decodes wire frames into fresh tensors.
			ck, err := pk.SliceRows(0, pk.Rows)
			if err != nil {
				b.Fatal(err)
			}
			cv, err := pv.SliceRows(0, pv.Rows)
			if err != nil {
				b.Fatal(err)
			}
			h, err := backend.RestorePrefixHead(128, ck, cv)
			if err != nil {
				b.Fatal(err)
			}
			if _, _, err := h.Prefill(sq.Clone(), sk.Clone(), sv.Clone()); err != nil {
				b.Fatal(err)
			}
		}
	})
	return cold, warm
}

func sliceRows(m *tensor.Matrix, lo, hi int) *tensor.Matrix {
	out := tensor.New(hi-lo, m.Cols)
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), m.Row(i))
	}
	return out
}

// benchAttention returns a benchmark body running one-token decode steps
// against a prefilled head of width dh of the given backend. Every 64
// steps it prefills a fresh head outside the timer, so the context stays
// within l..l+64 tokens however large b.N grows.
func benchAttention(mk func() (attention.Backend, error), dh, l int) func(b *testing.B) {
	return func(b *testing.B) {
		backend, err := mk()
		if err != nil {
			b.Fatal(err)
		}
		rng := rand.New(rand.NewSource(4))
		q := tensor.RandNormal(rng, l, dh, 1)
		k := tensor.RandNormal(rng, l, dh, 1)
		v := tensor.RandNormal(rng, l, dh, 1)
		dq := tensor.RandNormal(rng, 1, dh, 1)
		dk := tensor.RandNormal(rng, 1, dh, 1)
		dv := tensor.RandNormal(rng, 1, dh, 1)
		var h attention.Head
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if i%64 == 0 {
				b.StopTimer()
				if h, err = backend.NewHead(dh); err != nil {
					b.Fatal(err)
				}
				if _, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
					b.Fatal(err)
				}
				// Warm the head's scratch high-water marks.
				if _, _, err := h.Decode(dq, dk, dv); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			if _, _, err := h.Decode(dq, dk, dv); err != nil {
				b.Fatal(err)
			}
		}
	}
}
