package serve

import (
	"context"
	"testing"
)

// BenchmarkServerRequest measures end-to-end request latency through
// the full runtime — admission, routed prefill, continuous-batching
// decode over the homomorphic kernels, stream delivery.
func BenchmarkServerRequest(b *testing.B) {
	s, err := New(Config{PrefillWorkers: 2, MaxBatch: 8, QueueCap: 256, MaxNewTokens: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer func() { _ = s.Shutdown(context.Background()) }()
	prompt := promptFor(1, 10, s.Spec().Vocab)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := s.Submit(context.Background(), Request{Prompt: prompt, MaxNewTokens: 4, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for range st.Tokens() {
			n++
		}
		if err := st.Err(); err != nil {
			b.Fatal(err)
		}
		if n != 4 {
			b.Fatalf("got %d tokens", n)
		}
	}
}

// BenchmarkPrefixPrefill compares time-to-first-token through the full
// runtime with the shared-prefix tier: "cold" submits distinct prompts
// (every request misses and prefills itself), "warm" re-submits one
// prompt whose prefix is cached (every request skips prefill over the
// matched span). Both run the same prefix-shareable backend, so the gap
// is the prefill-skip saving.
func BenchmarkPrefixPrefill(b *testing.B) {
	cfg := Config{
		PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 1,
		Backend:          prefixTestBackend,
		PrefixCacheBytes: 1 << 24,
	}
	run := func(b *testing.B, prompt func(i int) []int) {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		defer func() { _ = s.Shutdown(context.Background()) }()
		// Seed the cache so warm iterations hit from the first request.
		st, err := s.Submit(context.Background(), Request{Prompt: prompt(0), MaxNewTokens: 1, Seed: 1})
		if err != nil {
			b.Fatal(err)
		}
		for range st.Tokens() {
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := s.Submit(context.Background(), Request{Prompt: prompt(i + 1), MaxNewTokens: 1, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			for range st.Tokens() {
			}
			if err := st.Err(); err != nil {
				b.Fatal(err)
			}
		}
	}
	vocabOf := func(b *testing.B) int {
		s, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		v := s.Spec().Vocab
		_ = s.Shutdown(context.Background())
		return v
	}
	b.Run("cold", func(b *testing.B) {
		vocab := vocabOf(b)
		run(b, func(i int) []int { return promptFor(i, 65, vocab) })
	})
	b.Run("warm", func(b *testing.B) {
		vocab := vocabOf(b)
		fixed := promptFor(0, 65, vocab)
		run(b, func(int) []int { return fixed })
	})
}
