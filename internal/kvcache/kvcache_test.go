package kvcache

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/hackkv/hack/internal/fp16"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

func testCfg(rng *rand.Rand, rqe bool) Config {
	return Config{HeadDim: 16, Pi: 8, KVBits: 2, Rounding: quant.NearestRounding, RNG: rng, RQE: rqe}
}

func TestConfigValidation(t *testing.T) {
	bad := []Config{
		{HeadDim: 0, Pi: 8, KVBits: 2},
		{HeadDim: 16, Pi: 0, KVBits: 2},
		{HeadDim: 16, Pi: 8, KVBits: 0},
		{HeadDim: 16, Pi: 8, KVBits: 2, Rounding: quant.StochasticRounding}, // no RNG
	}
	for i, c := range bad {
		if _, err := New(c); err == nil {
			t.Errorf("config %d accepted: %+v", i, c)
		}
	}
}

func TestAppendTokenInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	c := MustNew(testCfg(rng, true))
	for i := 0; i < 37; i++ {
		k := tensor.RandNormal(rng, 1, 16, 1)
		v := tensor.RandNormal(rng, 1, 16, 1)
		if err := c.AppendToken(k.Row(0), v.Row(0)); err != nil {
			t.Fatal(err)
		}
		if c.Len() != i+1 {
			t.Fatalf("Len = %d after %d appends", c.Len(), i+1)
		}
		if got := c.VFull.Rows + c.TailLen(); got != i+1 {
			t.Fatalf("V rows %d != %d tokens", got, i+1)
		}
		if c.VFull.Rows%8 != 0 {
			t.Fatalf("VFull ragged: %d rows", c.VFull.Rows)
		}
		if c.TailLen() >= 8 {
			t.Fatalf("tail reached Π: %d", c.TailLen())
		}
	}
	if c.Requants != 0 {
		t.Errorf("RQE cache performed %d requants", c.Requants)
	}
}

func TestAppendPrefillMatchesTokenByToken(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	k := tensor.RandNormal(rng, 21, 16, 1)
	v := tensor.RandNormal(rng, 21, 16, 1)

	bulk := MustNew(testCfg(nil, true))
	if err := bulk.AppendPrefill(k, v); err != nil {
		t.Fatal(err)
	}
	single := MustNew(testCfg(nil, true))
	for i := 0; i < 21; i++ {
		if err := single.AppendToken(k.Row(i), v.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if bulk.Len() != single.Len() || bulk.VFull.Rows != single.VFull.Rows {
		t.Fatalf("bulk %d/%d vs single %d/%d", bulk.Len(), bulk.VFull.Rows, single.Len(), single.VFull.Rows)
	}
	for i := range bulk.K.Codes {
		if bulk.K.Codes[i] != single.K.Codes[i] {
			t.Fatalf("K code %d differs", i)
		}
	}
	for i := range bulk.VFull.Codes {
		if bulk.VFull.Codes[i] != single.VFull.Codes[i] {
			t.Fatalf("V code %d differs", i)
		}
	}
	if d := tensor.MaxAbsDiff(bulk.VTail, single.VTail); d != 0 {
		t.Fatalf("tails differ by %v", d)
	}
}

func TestShapeErrors(t *testing.T) {
	c := MustNew(testCfg(nil, true))
	if err := c.AppendToken(make([]float32, 8), make([]float32, 16)); err == nil {
		t.Error("short K row accepted")
	}
	if err := c.AppendPrefill(tensor.New(2, 16), tensor.New(3, 16)); err == nil {
		t.Error("mismatched prefill rows accepted")
	}
}

// RQE: values quantize exactly once. Ablation: the partial block round
// trips through the quantizer on every append and error accumulates.
func TestRQEAvoidsRequantization(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	v := tensor.RandNormal(rng, 7, 16, 1) // never fills a Π=8 block

	rqe := MustNew(testCfg(nil, true))
	abl := MustNew(testCfg(nil, false))
	for i := 0; i < 7; i++ {
		k := make([]float32, 16)
		if err := rqe.AppendToken(k, v.Row(i)); err != nil {
			t.Fatal(err)
		}
		if err := abl.AppendToken(k, v.Row(i)); err != nil {
			t.Fatal(err)
		}
	}
	if rqe.Requants != 0 || rqe.RequantOps != 0 {
		t.Errorf("RQE cache: %d requants, %d ops", rqe.Requants, rqe.RequantOps)
	}
	if abl.Requants != 6 { // every append after the first requantizes
		t.Errorf("ablation requants = %d, want 6", abl.Requants)
	}
	if abl.RequantOps == 0 {
		t.Error("ablation charged no requant ops")
	}
	// The RQE tail is exact (modulo FP16); the ablation tail carries
	// accumulated quantization error.
	rqeErr := tensor.MaxAbsDiff(rqe.TailMatrix(), v)
	ablErr := tensor.MaxAbsDiff(abl.TailMatrix(), v)
	if rqeErr > 1e-2 {
		t.Errorf("RQE tail error %v, want ~FP16 rounding only", rqeErr)
	}
	if ablErr <= rqeErr {
		t.Errorf("ablation error %v not worse than RQE %v", ablErr, rqeErr)
	}
}

// Property: for any append sequence, token accounting stays consistent
// and VFull stays block-aligned.
func TestCacheInvariantsProperty(t *testing.T) {
	f := func(seed int64, nTok8 uint8, rqe bool) bool {
		n := int(nTok8%50) + 1
		rng := rand.New(rand.NewSource(seed))
		c := MustNew(Config{HeadDim: 8, Pi: 4, KVBits: 2,
			Rounding: quant.StochasticRounding, RNG: rng, RQE: rqe})
		for i := 0; i < n; i++ {
			k := tensor.RandNormal(rng, 1, 8, 1)
			v := tensor.RandNormal(rng, 1, 8, 1)
			if err := c.AppendToken(k.Row(0), v.Row(0)); err != nil {
				return false
			}
		}
		if c.Len() != n {
			return false
		}
		if c.VFull.Rows+c.TailLen() != n {
			return false
		}
		if c.VFull.Rows%4 != 0 {
			return false
		}
		want := (n / 4) * 4
		return c.VFull.Rows == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestUsageAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	c := MustNew(Config{HeadDim: 128, Pi: 64, KVBits: 2,
		Rounding: quant.StochasticRounding, RNG: rng, RQE: true})
	k := tensor.RandNormal(rng, 640, 128, 1)
	v := tensor.RandNormal(rng, 640, 128, 1)
	if err := c.AppendPrefill(k, v); err != nil {
		t.Fatal(err)
	}
	u := c.Usage()
	// Codes: K 640×128 at 2 bits + V 640×128 at 2 bits (640 divides 64).
	wantCodes := 2 * 640 * 128 * 2 / 8
	if u.CodeBytes != wantCodes {
		t.Errorf("CodeBytes = %d, want %d", u.CodeBytes, wantCodes)
	}
	if u.FP16Bytes != 0 {
		t.Errorf("FP16Bytes = %d, want 0 (tail empty)", u.FP16Bytes)
	}
	if u.SumBytes == 0 || u.MetaBytes == 0 {
		t.Error("missing metadata/sum accounting")
	}
	// SE sums should be a small fraction of code bytes (§6 quotes ~5%
	// of quantized KV for INT16 sums at Π=128; Π=64 with 1-byte sums
	// lands nearby).
	frac := float64(u.SumBytes) / float64(u.CodeBytes)
	if frac > 0.10 {
		t.Errorf("sum overhead %.3f of codes, want small", frac)
	}

	// One extra token puts a row in the FP16 tail.
	if err := c.AppendToken(k.Row(0), v.Row(0)); err != nil {
		t.Fatal(err)
	}
	if got := c.Usage().FP16Bytes; got != 2*128 {
		t.Errorf("tail FP16Bytes = %d, want 256", got)
	}

	// Wire size excludes sums but includes the tail.
	ws := c.WireSize()
	if ws >= c.Usage().Total() {
		t.Errorf("wire %d should be below resident %d (sums excluded)", ws, c.Usage().Total())
	}
	if ws <= c.K.Size(false).Total() {
		t.Error("wire size missing V payload")
	}
}

func TestFP16Cache(t *testing.T) {
	c := NewFP16(8)
	rng := rand.New(rand.NewSource(5))
	k := tensor.RandNormal(rng, 10, 8, 1)
	v := tensor.RandNormal(rng, 10, 8, 1)
	if err := c.Append(k, v); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 10 {
		t.Errorf("Len = %d", c.Len())
	}
	if got, want := c.Usage().Total(), 2*2*10*8; got != want {
		t.Errorf("Usage = %d, want %d", got, want)
	}
	if c.WireSize() != c.Usage().Total() {
		t.Error("FP16 wire size should equal resident size")
	}
	// Stored values are FP16-rounded, not bit-identical floats.
	if err := c.Append(tensor.New(1, 4), tensor.New(1, 4)); err == nil {
		t.Error("wrong-width append accepted")
	}
}

func TestTokenQuantCache(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := Config{HeadDim: 16, Pi: 16, KVBits: 2, Rounding: quant.StochasticRounding, RNG: rng}
	c, err := NewTokenQuant(cfg)
	if err != nil {
		t.Fatal(err)
	}
	k := tensor.RandNormal(rng, 12, 16, 1)
	v := tensor.RandNormal(rng, 12, 16, 1)
	if err := c.Append(k, v); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 12 {
		t.Errorf("Len = %d", c.Len())
	}
	dk, dv := c.DequantizeKVInto(&tensor.Matrix{}, &tensor.Matrix{})
	if dk.Rows != 12 || dv.Rows != 12 {
		t.Fatalf("dequant shapes %d/%d", dk.Rows, dv.Rows)
	}
	if c.DequantOpsTotal != 2*(2*12*16) {
		t.Errorf("DequantOpsTotal = %d", c.DequantOpsTotal)
	}
	// Reconstruction is within a scale step.
	if d := tensor.MaxAbsDiff(dk, k); d > 3 {
		t.Errorf("K dequant error %v implausibly large", d)
	}
	// 2-bit cache is much smaller than FP16 would be.
	if got := c.Usage().Total(); got >= 2*2*12*16 {
		t.Errorf("quantized cache %d not smaller than FP16 %d", got, 2*2*12*16)
	}
	if _, err := NewTokenQuant(Config{HeadDim: 0}); err == nil {
		t.Error("invalid config accepted")
	}
}

// The HACK cache's extra memory over the baselines' quantized cache (SE
// sums + FP16 tail) should be the small overhead Table 5 reports
// (HACK ~0.6–2.9% above CacheGen/KVQuant).
func TestHACKOverheadSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	hc := MustNew(Config{HeadDim: 128, Pi: 64, KVBits: 2,
		Rounding: quant.StochasticRounding, RNG: rng, RQE: true})
	tc, _ := NewTokenQuant(Config{HeadDim: 128, Pi: 64, KVBits: 2,
		Rounding: quant.StochasticRounding, RNG: rng})
	k := tensor.RandNormal(rng, 2048, 128, 1)
	v := tensor.RandNormal(rng, 2048, 128, 1)
	if err := hc.AppendPrefill(k, v); err != nil {
		t.Fatal(err)
	}
	if err := tc.Append(k, v); err != nil {
		t.Fatal(err)
	}
	ratio := float64(hc.Usage().Total())/float64(tc.Usage().Total()) - 1
	if ratio < 0 || ratio > 0.12 {
		t.Errorf("HACK memory overhead %.3f, want small positive", ratio)
	}
}

func BenchmarkAppendToken(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	c := MustNew(Config{HeadDim: 128, Pi: 64, KVBits: 2,
		Rounding: quant.StochasticRounding, RNG: rng, RQE: true})
	k := make([]float32, 128)
	v := make([]float32, 128)
	for i := range k {
		k[i] = float32(rng.NormFloat64())
		v[i] = float32(rng.NormFloat64())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.AppendToken(k, v); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAblationRequantizationsDrawFresh checks that the HACK/RQE
// ablation's repeated requantizations of the open V block round like
// independent events: its accumulated tail error matches a reference
// that rounds every pass under a fresh generator draw, within 8% —
// reusing one uniform per position across passes would compound the
// rounding error in one direction instead.
func TestAblationRequantizationsDrawFresh(t *testing.T) {
	const dh, pi, trials = 64, 64, 20
	const rows = pi - 1
	var keyed, fresh float64
	for seed := int64(0); seed < trials; seed++ {
		rng := rand.New(rand.NewSource(seed))
		v := tensor.RandNormal(rng, rows, dh, 1)
		c := MustNew(Config{HeadDim: dh, Pi: pi, KVBits: 2, Rounding: quant.StochasticRounding,
			Keys: quant.StreamKeys(seed)})
		for i := 0; i < rows; i++ {
			if err := c.AppendToken(make([]float32, dh), v.Row(i)); err != nil {
				t.Fatal(err)
			}
		}
		keyed += tensor.RelFrobenius(c.TailMatrix(), v) / trials

		block := tensor.New(0, dh)
		var bq *quant.Tensor
		for i := 0; i < rows; i++ {
			if bq != nil {
				block = bq.Dequantize()
			}
			row := append([]float32(nil), v.Row(i)...)
			fp16.RoundSlice(row)
			block = tensor.AppendRows(block, tensor.FromSlice(1, dh, row))
			bq = quant.MustQuantize(block, quant.AlongRows, quant.Config{Bits: 2, Partition: pi,
				Rounding: quant.StochasticRounding, RNG: rng})
		}
		fresh += tensor.RelFrobenius(bq.Dequantize(), v) / trials
	}
	if math.Abs(keyed/fresh-1) > 0.08 {
		t.Fatalf("ablation tail error %.4f vs fresh-draw reference %.4f: more than 8%% apart", keyed, fresh)
	}
}
