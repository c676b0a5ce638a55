package attention

import (
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

const dh = 32

func randQKV(seed int64, n int) (q, k, v *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandNormal(rng, n, dh, 1),
		tensor.RandNormal(rng, n, dh, 1),
		tensor.RandNormal(rng, n, dh, 1)
}

func allBackends(t *testing.T) []Backend {
	t.Helper()
	cg, err := NewDequant(DequantConfig{
		MethodName: "CacheGen", Pi: 24, KVBits: 2,
		Rounding: quant.StochasticRounding, Seed: 11, WireFactor: 0.9,
	})
	if err != nil {
		t.Fatal(err)
	}
	hk, err := NewHACK(DefaultHACKConfig(13))
	if err != nil {
		t.Fatal(err)
	}
	return []Backend{ExactBackend{}, FP16Backend{}, cg, hk}
}

// All backends must agree with the exact reference on shapes and,
// approximately, on values: attention outputs are convex combinations of
// V rows, so quantization perturbs but cannot explode them.
func TestBackendsApproximateExact(t *testing.T) {
	q, k, v := randQKV(1, 40)
	exact, err := ExactBackend{}.NewHead(dh)
	if err != nil {
		t.Fatal(err)
	}
	ref, _, err := exact.Prefill(q, k, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range allBackends(t)[1:] {
		h, err := b.NewHead(dh)
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		out, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone())
		if err != nil {
			t.Fatalf("%s: %v", b.Name(), err)
		}
		if out.Rows != 40 || out.Cols != dh {
			t.Fatalf("%s: output shape %dx%d", b.Name(), out.Rows, out.Cols)
		}
		rel := tensor.RelFrobenius(out, ref)
		limit := 0.6 // 2-bit KV is noisy; convexity bounds the damage
		if b.Name() == "Baseline" {
			limit = 0.01
		}
		if rel > limit {
			t.Errorf("%s: prefill relative error %.3f > %.2f", b.Name(), rel, limit)
		}
	}
}

// Decode outputs must track the reference across a long autoregressive
// run, and FP16 must be far closer than the 2-bit methods.
func TestDecodeTracksReference(t *testing.T) {
	q, k, v := randQKV(2, 24)
	backends := allBackends(t)
	heads := make([]Head, len(backends))
	for i, b := range backends {
		h, err := b.NewHead(dh)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
			t.Fatal(err)
		}
		heads[i] = h
	}
	rng := rand.New(rand.NewSource(3))
	var relFP16, relHACK float64
	const steps = 80
	for step := 0; step < steps; step++ {
		dq := tensor.RandNormal(rng, 1, dh, 1)
		dk := tensor.RandNormal(rng, 1, dh, 1)
		dv := tensor.RandNormal(rng, 1, dh, 1)
		var ref *tensor.Matrix
		for i, h := range heads {
			out, _, err := h.Decode(dq.Clone(), dk.Clone(), dv.Clone())
			if err != nil {
				t.Fatalf("%s: %v", backends[i].Name(), err)
			}
			switch backends[i].Name() {
			case "Exact":
				ref = out
			case "Baseline":
				relFP16 += tensor.RelFrobenius(out, ref)
			case "HACK":
				relHACK += tensor.RelFrobenius(out, ref)
			}
		}
	}
	relFP16 /= steps
	relHACK /= steps
	if relFP16 > 0.01 {
		t.Errorf("FP16 decode error %.4f, want ~0", relFP16)
	}
	// Decode outputs are convex combinations of V rows, which average
	// toward small norms, so *relative* error at d_h=32 with 2-bit KV is
	// sizeable; the bound just catches blowups.
	if relHACK > 1.2 {
		t.Errorf("HACK decode error %.4f, too large", relHACK)
	}
	if relFP16 >= relHACK {
		t.Errorf("FP16 error %.4f should be below HACK %.4f", relFP16, relHACK)
	}
	// All caches agree on token count: 24 prefill + 80 decode.
	for i, h := range heads {
		if h.Len() != 104 {
			t.Errorf("%s: Len = %d, want 104", backends[i].Name(), h.Len())
		}
	}
}

// HACK must never dequantize KV; the dequant family must never use the
// homomorphic path. Stats make the distinction observable.
func TestStatsSeparateTheMethods(t *testing.T) {
	q, k, v := randQKV(4, 70)
	dq, _ := NewDequant(DequantConfig{MethodName: "KVQuant", Pi: 28, KVBits: 2,
		Rounding: quant.NearestRounding, Seed: 5, WireFactor: 1})
	hk, _ := NewHACK(DefaultHACKConfig(6))

	dh1, _ := dq.NewHead(dh)
	_, st, err := dh1.Prefill(q.Clone(), k.Clone(), v.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if st.DequantOps == 0 {
		t.Error("dequant backend reported no dequantization work")
	}
	if st.IntOps != 0 || st.ApproxOps != 0 {
		t.Error("dequant backend reported homomorphic work")
	}

	hh, _ := hk.NewHead(dh)
	_, st, err = hh.Prefill(q.Clone(), k.Clone(), v.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if st.DequantOps != 0 {
		t.Error("HACK reported dequantization work")
	}
	if st.IntOps == 0 || st.ApproxOps == 0 {
		t.Error("HACK reported no homomorphic work")
	}
	if st.SumOps != 0 {
		t.Error("HACK with SE recomputed sums")
	}

	// One decode step reads the cache.
	one := tensor.New(1, dh)
	_, st, err = hh.Decode(one.Clone(), one.Clone(), one.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if st.KVBytesRead == 0 {
		t.Error("decode reported no KV reads")
	}
}

// A HACK prefill counts the live causal triangle it computes, not the
// full L×L square: over L = 2Π+5 prompt tokens (two quantized V
// partitions and a 5-row FP16 tail), query row i scores i+1 keys and
// multiplies min(2, ⌊i/Π⌋+1) P partitions.
func TestHACKPrefillCountsLiveTriangle(t *testing.T) {
	const pi, L = 64, 2*64 + 5
	b, err := NewHACK(DefaultHACKConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	h, err := b.NewHead(dh)
	if err != nil {
		t.Fatal(err)
	}
	q, k, v := randQKV(12, L)
	_, st, err := h.Prefill(q, k, v)
	if err != nil {
		t.Fatal(err)
	}
	cells := int64(L * (L + 1) / 2)             // Q·Kᵀ scores computed
	liveFull := int64(2*pi*(2*pi+1)/2 + 5*2*pi) // of them, in the quantized span
	blocks := int64(pi*1 + (L-pi)*2)            // P partitions multiplied
	nbQ := int64((dh + pi - 1) / pi)
	want := Stats{
		IntOps:    2*dh*cells + 2*dh*pi*blocks,
		ApproxOps: 9*nbQ*cells + L*dh + 9*dh*blocks + pi*blocks,
		FloatOps:  8*cells + 2*dh*(cells-liveFull),
		QuantOps:  2*2*L*dh + 2*L*dh + 2*pi*blocks,
	}
	if st != want {
		t.Errorf("prefill stats %+v, want %+v", st, want)
	}
}

// The SE ablation recomputes sums, the RQE ablation requantizes the V
// tail — both must show up in stats while full HACK shows neither.
func TestAblationStats(t *testing.T) {
	mk := func(se, rqe bool) Head {
		cfg := DefaultHACKConfig(7)
		cfg.SummationElimination = se
		cfg.RequantizationElimination = rqe
		b, err := NewHACK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.NewHead(dh)
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	q, k, v := randQKV(8, 70) // 70 % 64 != 0 → live tail
	run := func(h Head) Stats {
		if _, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
			t.Fatal(err)
		}
		var total Stats
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 10; i++ {
			dq := tensor.RandNormal(rng, 1, dh, 1)
			_, st, err := h.Decode(dq, tensor.RandNormal(rng, 1, dh, 1), tensor.RandNormal(rng, 1, dh, 1))
			if err != nil {
				t.Fatal(err)
			}
			total.Add(st)
		}
		return total
	}
	full := run(mk(true, true))
	noSE := run(mk(false, true))
	noRQE := run(mk(true, false))
	if full.SumOps != 0 || full.RequantOps != 0 {
		t.Errorf("full HACK: sum=%d requant=%d, want 0", full.SumOps, full.RequantOps)
	}
	if noSE.SumOps == 0 {
		t.Error("HACK/SE ablation recorded no sum recomputation")
	}
	if noRQE.RequantOps == 0 {
		t.Error("HACK/RQE ablation recorded no requantization")
	}
}

func TestBackendNames(t *testing.T) {
	mk := func(se, rqe bool) string {
		cfg := DefaultHACKConfig(1)
		cfg.SummationElimination = se
		cfg.RequantizationElimination = rqe
		b, _ := NewHACK(cfg)
		return b.Name()
	}
	if mk(true, true) != "HACK" || mk(false, true) != "HACK/SE" || mk(true, false) != "HACK/RQE" {
		t.Error("derived names wrong")
	}
	cfg := DefaultHACKConfig(1)
	cfg.NameOverride = "HACK (Π=32)"
	b, _ := NewHACK(cfg)
	if b.Name() != "HACK (Π=32)" {
		t.Error("name override ignored")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewDequant(DequantConfig{MethodName: "", Pi: 8, KVBits: 2, WireFactor: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := NewDequant(DequantConfig{MethodName: "x", Pi: 8, KVBits: 2, WireFactor: 0}); err == nil {
		t.Error("zero wire factor accepted")
	}
	if _, err := NewDequant(DequantConfig{MethodName: "x", Pi: 0, KVBits: 2, WireFactor: 1}); err == nil {
		t.Error("zero pi accepted")
	}
	if _, err := NewHACK(HACKConfig{Pi: 0, QBits: 8, KVBits: 2}); err == nil {
		t.Error("zero pi accepted")
	}
	if _, err := NewHACK(HACKConfig{Pi: 64, QBits: 0, KVBits: 2}); err == nil {
		t.Error("zero qbits accepted")
	}
	if _, err := (ExactBackend{}).NewHead(0); err == nil {
		t.Error("zero head dim accepted")
	}
	if _, err := (FP16Backend{}).NewHead(-1); err == nil {
		t.Error("negative head dim accepted")
	}
}

// Wire sizes: quantized methods transfer ~7x less than the baseline,
// and the CacheGen wire factor shrinks it further.
func TestWireSizes(t *testing.T) {
	q, k, v := randQKV(10, 256)
	base, _ := FP16Backend{}.NewHead(dh)
	if _, _, err := base.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
		t.Fatal(err)
	}
	cg, _ := NewDequant(DequantConfig{MethodName: "CacheGen", Pi: 16, KVBits: 2,
		Rounding: quant.NearestRounding, Seed: 1, WireFactor: 0.9})
	cgh, _ := cg.NewHead(dh)
	if _, _, err := cgh.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
		t.Fatal(err)
	}
	hk, _ := NewHACK(DefaultHACKConfig(2))
	hkh, _ := hk.NewHead(dh)
	if _, _, err := hkh.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
		t.Fatal(err)
	}

	fb, cb, hb := base.WireSize(), cgh.WireSize(), hkh.WireSize()
	if ratio := float64(cb) / float64(fb); ratio > 0.25 {
		t.Errorf("CacheGen wire ratio %.3f, want deep compression", ratio)
	}
	if ratio := float64(hb) / float64(fb); ratio > 0.25 {
		t.Errorf("HACK wire ratio %.3f, want deep compression", ratio)
	}
	if cb >= int(float64(fb)*0.25) || hb >= fb {
		t.Error("compression sanity failed")
	}
}

// Π sensitivity: finer partitions give lower attention error (Table 8's
// accuracy column), averaged over stochastic trials.
func TestPartitionSizeAccuracyOrdering(t *testing.T) {
	var err32, err128 float64
	const trials = 6
	for trial := 0; trial < trials; trial++ {
		q, k, v := randQKV(int64(20+trial), 256)
		exact, _ := ExactBackend{}.NewHead(dh)
		ref, _, _ := exact.Prefill(q.Clone(), k.Clone(), v.Clone())
		for _, pi := range []int{32, 128} {
			cfg := DefaultHACKConfig(int64(trial))
			cfg.Pi = pi
			b, _ := NewHACK(cfg)
			h, _ := b.NewHead(dh)
			out, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone())
			if err != nil {
				t.Fatal(err)
			}
			rel := tensor.RelFrobenius(out, ref)
			if pi == 32 {
				err32 += rel
			} else {
				err128 += rel
			}
		}
	}
	if err32 >= err128 {
		t.Errorf("Π=32 error %.4f not below Π=128 error %.4f", err32/trials, err128/trials)
	}
}

func BenchmarkHACKDecodeStep(b *testing.B) {
	q, k, v := randQKV(1, 1024)
	hk, _ := NewHACK(DefaultHACKConfig(1))
	h, _ := hk.NewHead(dh)
	if _, _, err := h.Prefill(q, k, v); err != nil {
		b.Fatal(err)
	}
	one := tensor.New(1, dh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.Decode(one, one, one); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDequantDecodeStep(b *testing.B) {
	q, k, v := randQKV(1, 1024)
	dq, _ := NewDequant(DequantConfig{MethodName: "KVQuant", Pi: 32, KVBits: 2,
		Rounding: quant.NearestRounding, Seed: 1, WireFactor: 1})
	h, _ := dq.NewHead(dh)
	if _, _, err := h.Prefill(q, k, v); err != nil {
		b.Fatal(err)
	}
	one := tensor.New(1, dh)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := h.Decode(one, one, one); err != nil {
			b.Fatal(err)
		}
	}
}

// Storing KV at 4 bits rather than 2 trades compression for fidelity:
// the attention output error must drop substantially.
func TestKVBitsAccuracyTradeoff(t *testing.T) {
	q, k, v := randQKV(30, 256)
	exact, _ := ExactBackend{}.NewHead(dh)
	ref, _, _ := exact.Prefill(q.Clone(), k.Clone(), v.Clone())
	errAt := func(bits int) float64 {
		cfg := DefaultHACKConfig(9)
		cfg.KVBits = bits
		b, err := NewHACK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h, _ := b.NewHead(dh)
		out, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone())
		if err != nil {
			t.Fatal(err)
		}
		return tensor.RelFrobenius(out, ref)
	}
	e2, e4 := errAt(2), errAt(4)
	if e4 >= e2/2 {
		t.Errorf("4-bit error %.4f not well below 2-bit %.4f", e4, e2)
	}
}

// CacheGen's entropy-coded wire factor shows up in WireSize but not in
// the resident cache.
func TestWireFactorOnlyAffectsWire(t *testing.T) {
	q, k, v := randQKV(31, 128)
	mk := func(factor float64) Head {
		b, err := NewDequant(DequantConfig{MethodName: "X", Pi: 16, KVBits: 2,
			Rounding: quant.NearestRounding, Seed: 1, WireFactor: factor})
		if err != nil {
			t.Fatal(err)
		}
		h, _ := b.NewHead(dh)
		if _, _, err := h.Prefill(q.Clone(), k.Clone(), v.Clone()); err != nil {
			t.Fatal(err)
		}
		return h
	}
	full, compressed := mk(1.0), mk(0.8)
	if full.CacheUsage().Total() != compressed.CacheUsage().Total() {
		t.Error("wire factor changed resident cache size")
	}
	if compressed.WireSize() >= full.WireSize() {
		t.Errorf("wire factor 0.8 gave %d bytes >= factor 1.0's %d",
			compressed.WireSize(), full.WireSize())
	}
}
