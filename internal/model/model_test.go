package model

import (
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/metrics"
)

func TestCatalogSpecsValid(t *testing.T) {
	for _, s := range Catalog() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
		if s.Params <= 0 || s.KVBytesPerTokenFP16() <= 0 {
			t.Errorf("%s: params/KV sizes missing", s.Name)
		}
	}
	if len(Catalog()) != 5 {
		t.Errorf("catalog has %d models, want 5", len(Catalog()))
	}
}

func TestByShortName(t *testing.T) {
	s, err := ByShortName("L")
	if err != nil || s.Name != "Llama-3.1 70B" {
		t.Errorf("ByShortName(L) = %v, %v", s.Name, err)
	}
	if _, err := ByShortName("Z"); err == nil {
		t.Error("unknown tag accepted")
	}
}

func TestSpecFormulas(t *testing.T) {
	l := Llama70B()
	// MHA KV sizing (see spec.go note): 2 × 80 layers × 64 heads × 128 d_h × 2 B.
	if got, want := l.KVBytesPerTokenFP16(), int64(2*80*64*128*2); got != want {
		t.Errorf("KVBytesPerTokenFP16 = %d, want %d", got, want)
	}
	if got, want := l.WeightBytesFP16(), 2*l.Params; got != want {
		t.Errorf("WeightBytesFP16 = %d, want %d", got, want)
	}
	// Prefill FLOPs dominated by 2·P·L for short prompts.
	if got := l.PrefillFLOPs(100); got < 2*l.Params*100 {
		t.Errorf("PrefillFLOPs(100) = %d below linear term", got)
	}
	// Attention share grows quadratically.
	a1, a2 := l.AttnFLOPsPrefill(1000), l.AttnFLOPsPrefill(2000)
	if a2 != 4*a1 {
		t.Errorf("attention FLOPs not quadratic: %d vs %d", a1, a2)
	}
	if got := l.DecodeFLOPsPerToken(0); got != 2*l.Params {
		t.Errorf("DecodeFLOPsPerToken(0) = %d", got)
	}
	// Falcon's context cap is the reason the paper swaps in arXiv.
	if Falcon180B().MaxContext != 2048 {
		t.Error("Falcon context cap missing")
	}
}

func TestNewTransformerValidation(t *testing.T) {
	bad := Toy()
	bad.HeadDim = 16 // heads·d_h no longer equals hidden
	if _, err := NewTransformer(bad, 1); err == nil {
		t.Error("inconsistent head dims accepted")
	}
	bad = Toy()
	bad.Vocab = 1
	if _, err := NewTransformer(bad, 1); err == nil {
		t.Error("vocab=1 accepted")
	}
}

func TestDeterministicWeights(t *testing.T) {
	a, err := NewTransformer(Toy(), 42)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := NewTransformer(Toy(), 42)
	for i := range a.Embed.Data {
		if a.Embed.Data[i] != b.Embed.Data[i] {
			t.Fatal("same seed produced different weights")
		}
	}
	c, _ := NewTransformer(Toy(), 43)
	same := true
	for i := range a.Embed.Data {
		if a.Embed.Data[i] != c.Embed.Data[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical weights")
	}
}

func randPrompt(rng *rand.Rand, n, vocab int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = rng.Intn(vocab)
	}
	return p
}

func TestGenerateDeterministicAndSeparateSessions(t *testing.T) {
	m, err := NewTransformer(Toy(), 7)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	prompt := randPrompt(rng, 24, m.Spec().Vocab)

	gen := func() []int {
		s, err := m.NewSession(attention.ExactBackend{})
		if err != nil {
			t.Fatal(err)
		}
		out, err := s.Generate(prompt, 20, -1)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := gen(), gen()
	if len(a) != 20 {
		t.Fatalf("generated %d tokens, want 20", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic generation at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	m, _ := NewTransformer(Toy(), 7)
	s, _ := m.NewSession(attention.ExactBackend{})
	if _, err := s.Generate(nil, 5, -1); err == nil {
		t.Error("empty prompt accepted")
	}
	if _, err := s.Prefill([]int{99999}); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	if _, err := s.Decode(-1); err == nil {
		t.Error("negative token accepted")
	}
}

func TestEOSStopsGeneration(t *testing.T) {
	m, _ := NewTransformer(Toy(), 7)
	rng := rand.New(rand.NewSource(2))
	prompt := randPrompt(rng, 16, m.Spec().Vocab)
	s, _ := m.NewSession(attention.ExactBackend{})
	full, err := s.Generate(prompt, 30, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) < 2 {
		t.Skip("generation too short to test EOS")
	}
	// Rerun with eos = the first generated token: must stop immediately.
	s2, _ := m.NewSession(attention.ExactBackend{})
	out, err := s2.Generate(prompt, 30, full[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("generation did not stop at EOS: %d tokens", len(out))
	}
}

// FP16 baseline generations stay close to the exact reference; the
// quantized backends perturb more but still produce overlapping content.
// This is the mechanism behind the Table 6 accuracy ladder.
func TestBackendAccuracyLadder(t *testing.T) {
	m, err := NewTransformer(Toy(), 11)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))

	type result struct {
		name  string
		score float64
	}
	const prompts = 16 // enough that one unlucky stochastic stream cannot sink the mean
	const maxNew = 24
	scores := map[string]float64{}
	for p := 0; p < prompts; p++ {
		prompt := randPrompt(rng, 32, m.Spec().Vocab)
		ref := mustGenerate(t, m, attention.ExactBackend{}, prompt, maxNew)
		hk, err := attention.NewHACK(attention.DefaultHACKConfig(int64(p)))
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range []attention.Backend{attention.FP16Backend{}, hk} {
			out := mustGenerate(t, m, b, prompt, maxNew)
			scores[b.Name()] += metrics.Rouge1(out, ref) / prompts
		}
	}
	if scores["Baseline"] < 0.95 {
		t.Errorf("FP16 baseline ROUGE-1 %.3f vs exact, want ≥ 0.95", scores["Baseline"])
	}
	if scores["HACK"] > scores["Baseline"]+1e-9 {
		t.Errorf("HACK %.3f above baseline %.3f", scores["HACK"], scores["Baseline"])
	}
	if scores["HACK"] < 0.2 {
		t.Errorf("HACK ROUGE-1 %.3f collapsed", scores["HACK"])
	}
	_ = result{}
}

func mustGenerate(t *testing.T, m *Transformer, b attention.Backend, prompt []int, maxNew int) []int {
	t.Helper()
	s, err := m.NewSession(b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Generate(prompt, maxNew, -1)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSessionAccounting(t *testing.T) {
	m, _ := NewTransformer(Toy(), 5)
	hk, _ := attention.NewHACK(attention.DefaultHACKConfig(1))
	s, _ := m.NewSession(hk)
	rng := rand.New(rand.NewSource(4))
	if _, err := s.Generate(randPrompt(rng, 40, m.Spec().Vocab), 8, -1); err != nil {
		t.Fatal(err)
	}
	if s.Stats.IntOps == 0 || s.Stats.QuantOps == 0 {
		t.Error("session stats not accumulated")
	}
	if s.CacheUsageTotal() == 0 || s.WireSizeTotal() == 0 {
		t.Error("session cache accounting empty")
	}
	// HACK cache much smaller than the FP16 baseline's.
	sb, _ := m.NewSession(attention.FP16Backend{})
	if _, err := sb.Generate(randPrompt(rng, 40, m.Spec().Vocab), 8, -1); err != nil {
		t.Fatal(err)
	}
	if s.CacheUsageTotal() >= sb.CacheUsageTotal() {
		t.Errorf("HACK cache %d not below FP16 %d", s.CacheUsageTotal(), sb.CacheUsageTotal())
	}
}

func BenchmarkToyGenerateHACK(b *testing.B) {
	m, _ := NewTransformer(Toy(), 1)
	rng := rand.New(rand.NewSource(1))
	prompt := randPrompt(rng, 64, m.Spec().Vocab)
	hk, _ := attention.NewHACK(attention.DefaultHACKConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, _ := m.NewSession(hk)
		if _, err := s.Generate(prompt, 16, -1); err != nil {
			b.Fatal(err)
		}
	}
}

// Grouped-query attention: a model with fewer KV heads than query heads
// runs end to end, and two query heads of the same group see identical
// KV projections.
func TestGQAModel(t *testing.T) {
	spec := Toy()
	spec.KVHeads = 1 // 2 query heads share one KV group
	m, err := NewTransformer(spec, 9)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	s, err := m.NewSession(attention.ExactBackend{})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.Generate(randPrompt(rng, 24, spec.Vocab), 12, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 12 {
		t.Fatalf("generated %d tokens", len(out))
	}
	// Both heads' caches hold the same tokens (identical group KV).
	if s.HeadUsage(0, 0).Total() != s.HeadUsage(0, 1).Total() {
		t.Error("GQA group caches diverged in size")
	}
	// A GQA model differs from its MHA sibling (different wk shapes).
	mha, _ := NewTransformer(Toy(), 9)
	s2, _ := mha.NewSession(attention.ExactBackend{})
	out2, err := s2.Generate(randPrompt(rand.New(rand.NewSource(1)), 24, spec.Vocab), 12, -1)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range out {
		if out[i] != out2[i] {
			same = false
			break
		}
	}
	if same {
		t.Log("GQA and MHA generations coincide (possible but unlikely); not failing")
	}
}
