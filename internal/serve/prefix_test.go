package serve

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
)

// prefixTestBackend builds HACK backends with a small Π so short
// prompts span several cache blocks.
func prefixTestBackend(seed int64) (attention.Backend, error) {
	cfg := attention.DefaultHACKConfig(seed)
	cfg.Pi = 8
	return attention.NewHACK(cfg)
}

// prefixServerConfig is the deterministic single-worker configuration
// with the shared-prefix tier enabled.
func prefixServerConfig(budget int64) Config {
	return Config{
		PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 8,
		Backend:          prefixTestBackend,
		PrefixCacheBytes: budget,
	}
}

func submitOne(t *testing.T, s *Server, prompt []int, seed int64) []int {
	t.Helper()
	st, err := s.Submit(context.Background(), Request{Prompt: prompt, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	out := collect(t, st)
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPrefixCacheWarmColdIdentity is the tentpole acceptance property
// at the serving level: a request that hits the prefix cache skips
// prefill over the matched span yet streams tokens byte-identical to
// the cold path for the same (prompt, seed), and the hit/miss/bytes-
// saved counters expose the reuse.
func TestPrefixCacheWarmColdIdentity(t *testing.T) {
	s := newTestServer(t, prefixServerConfig(1<<20))
	prompt := promptFor(1, 21, s.Spec().Vocab)

	cold := submitOne(t, s, prompt, 5)
	snap := s.Metrics()
	if snap.PrefixCache == nil {
		t.Fatal("prefix tier enabled but snapshot carries no stats")
	}
	if snap.PrefixCache.Hits != 0 || snap.PrefixCache.Misses != 1 || snap.PrefixCache.Inserts != 2 {
		t.Fatalf("after cold request: %+v", snap.PrefixCache)
	}

	warm := submitOne(t, s, prompt, 5)
	if len(warm) != len(cold) {
		t.Fatalf("warm streamed %d tokens, cold %d", len(warm), len(cold))
	}
	for i := range warm {
		if warm[i] != cold[i] {
			t.Fatalf("token %d diverged: warm %d, cold %d", i, warm[i], cold[i])
		}
	}
	snap = s.Metrics()
	pc := snap.PrefixCache
	if pc.Hits != 1 || pc.TokensReused != 16 {
		t.Fatalf("after warm request: %+v", pc)
	}
	if pc.BytesSaved <= 0 || pc.BytesUsed <= 0 || pc.BytesBudget <= 0 {
		t.Fatalf("byte accounting missing: %+v", pc)
	}
	if pc.Errors != 0 {
		t.Fatalf("tier recorded %d errors", pc.Errors)
	}

	// A fresh prefix-enabled server's cold answer for the same request
	// must equal the warm one — warm vs cold, not just warm vs warm.
	s2 := newTestServer(t, prefixServerConfig(1<<20))
	cold2 := submitOne(t, s2, prompt, 5)
	for i := range warm {
		if warm[i] != cold2[i] {
			t.Fatalf("token %d: warm %d vs fresh cold %d", i, warm[i], cold2[i])
		}
	}
}

// TestPrefixCacheSeedNamespaces checks that cached pages never cross
// quantizer seeds: the same prompt under a different seed is a miss.
func TestPrefixCacheSeedNamespaces(t *testing.T) {
	s := newTestServer(t, prefixServerConfig(1<<20))
	prompt := promptFor(2, 17, s.Spec().Vocab)
	submitOne(t, s, prompt, 1)
	submitOne(t, s, prompt, 2)
	pc := s.Metrics().PrefixCache
	if pc.Hits != 0 || pc.Misses != 2 {
		t.Fatalf("cross-seed stats %+v, want 2 misses", pc)
	}
}

// TestPrefixCacheShortPromptsBypass checks that prompts too short to
// leave a cacheable block (the last position is never cached) bypass
// the tier entirely.
func TestPrefixCacheShortPromptsBypass(t *testing.T) {
	s := newTestServer(t, prefixServerConfig(1<<20))
	submitOne(t, s, promptFor(3, 8, s.Spec().Vocab), 1) // insertable(8) == 0
	pc := s.Metrics().PrefixCache
	if pc.Hits != 0 || pc.Misses != 0 || pc.Inserts != 0 {
		t.Fatalf("short prompt touched the tier: %+v", pc)
	}
}

// TestPrefixCacheEvictionUnderPressure is the ref-counted eviction
// scenario (run under -race in CI): a budget of a few blocks, many
// distinct prompts submitted concurrently across two prefill workers.
// Every request must complete, eviction must occur, and a re-submitted
// prompt must reproduce its original stream whether it hits or misses.
func TestPrefixCacheEvictionUnderPressure(t *testing.T) {
	cfg := prefixServerConfig(0)
	// Room for 4 blocks of 8 tokens at the Toy spec's framed page cost.
	cfg.PrefixCacheBytes = int64(4 * 8 * prefixBytesPerToken(model.Toy(), 8, 2))
	cfg.PrefillWorkers = 2
	s := newTestServer(t, cfg)
	vocab := s.Spec().Vocab

	const n = 10
	first := make([][]int, n)
	streams := make([]*Stream, n)
	for i := 0; i < n; i++ {
		st, err := s.Submit(context.Background(), Request{
			Prompt: promptFor(i, 17, vocab), Seed: int64(i), MaxNewTokens: 4,
		})
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = st
	}
	for i, st := range streams {
		first[i] = collect(t, st)
		if err := st.Err(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	pc := s.Metrics().PrefixCache
	if pc.Evictions == 0 && pc.InsertRejected == 0 {
		t.Fatalf("10 distinct prompts against a 4-block budget caused no pressure: %+v", pc)
	}
	if pc.Errors != 0 {
		t.Fatalf("tier errors under pressure: %+v", pc)
	}
	for i := 0; i < n; i++ {
		again := submitOne(t, s, promptFor(i, 17, vocab), int64(i))
		for j := range again {
			if j < len(first[i]) && again[j] != first[i][j] {
				t.Fatalf("request %d token %d: resubmit %d, original %d", i, j, again[j], first[i][j])
			}
		}
	}
}

// TestPrefixCacheConfigValidation pins tier construction errors:
// backends that cannot page their cache are rejected outright, and so
// are budgets that buy no page. (Pages are one partition, so the tier
// cannot be misaligned; TestNewPrefixCacheValidation pins
// NewPrefixCache's own check.)
func TestPrefixCacheConfigValidation(t *testing.T) {
	var cfg Config
	for name, backend := range map[string]BackendFactory{
		"fp16": func(int64) (attention.Backend, error) { return attention.FP16Backend{}, nil },
		"no-RQE": func(seed int64) (attention.Backend, error) {
			c := attention.DefaultHACKConfig(seed)
			c.RequantizationElimination = false
			return attention.NewHACK(c)
		},
	} {
		cfg = prefixServerConfig(1 << 20)
		cfg.Backend = backend
		if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "prefix") {
			t.Fatalf("%s backend accepted for prefix tier: %v", name, err)
		}
	}

	cfg = prefixServerConfig(-1)
	if _, err := New(cfg); err == nil {
		t.Fatal("negative budget accepted")
	}
	// One byte short of a page of 8 tokens at the Toy spec's page cost.
	cfg = prefixServerConfig(int64(8*prefixBytesPerToken(model.Toy(), 8, 2)) - 1)
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), "below one page") {
		t.Fatalf("budget below one page: %v", err)
	}
}

// TestPrefixSnapshotOmittedWhenDisabled keeps the JSON surface stable
// for deployments without the tier.
func TestPrefixSnapshotOmittedWhenDisabled(t *testing.T) {
	s := newTestServer(t, Config{PrefillWorkers: 1, DecodeParallelism: 1})
	if s.Metrics().PrefixCache != nil {
		t.Fatal("prefix stats present with the tier disabled")
	}
}

// faultyPrefixTier is a PrefixCacheBackend that fails on every
// request's path. With err set, Lookup and Insert return it; otherwise
// Lookup returns a one-block match whose block carries no frames, which
// the restore must reject, and Insert succeeds without caching.
type faultyPrefixTier struct {
	err      error
	released atomic.Int64
}

func (f *faultyPrefixTier) Lookup(seed int64, prompt []int, maxTokens int) (*PrefixMatch, error) {
	if f.err != nil {
		return nil, f.err
	}
	return &PrefixMatch{Tokens: 8, Blocks: [][]*netsim.KVFrame{{}},
		release: func() { f.released.Add(1) }}, nil
}

func (f *faultyPrefixTier) Insert(int64, []int, int, func(lo, hi int) ([]*netsim.KVFrame, error)) (int, error) {
	return 0, f.err
}

func (f *faultyPrefixTier) Stats() (PrefixCacheStats, error) { return PrefixCacheStats{}, nil }

func (f *faultyPrefixTier) Close() error { return nil }

// TestPrefixTierErrorFallsBackCold pins the tier's error contract: a
// tier that errors, or hands back pages the restore rejects, costs each
// request a cold prefill and an Errors count — never the request. Every
// stream must equal a server's built without the tier.
func TestPrefixTierErrorFallsBackCold(t *testing.T) {
	ref := newTestServer(t, Config{
		PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 8,
		Backend: prefixTestBackend,
	})
	vocab := ref.Spec().Vocab
	// Three prompts, each sent twice, so a working tier would hit.
	const n = 6
	prompt := func(i int) []int { return promptFor(i%3, 21, vocab) }
	want := make([][]int, n)
	for i := range want {
		want[i] = submitOne(t, ref, prompt(i), int64(i%3))
	}

	for name, tc := range map[string]struct {
		tier *faultyPrefixTier
		errs int64
	}{
		"erroring":  {&faultyPrefixTier{err: errors.New("tier down")}, 2 * n}, // lookup + insert
		"bad-pages": {&faultyPrefixTier{}, n},                                 // restore
	} {
		s := newTestServer(t, prefixServerConfig(1<<20))
		s.prefix.backend = tc.tier
		for i := 0; i < n; i++ {
			if got := submitOne(t, s, prompt(i), int64(i%3)); !slices.Equal(got, want[i]) {
				t.Fatalf("%s: request %d streamed %v, tierless server %v", name, i, got, want[i])
			}
		}
		snap := s.Metrics()
		if snap.Failed != 0 {
			t.Fatalf("%s: %d requests failed on the tier", name, snap.Failed)
		}
		if snap.PrefixCache.Errors != tc.errs {
			t.Fatalf("%s: tier errors %d, want %d", name, snap.PrefixCache.Errors, tc.errs)
		}
		if tc.tier.err == nil && tc.tier.released.Load() != n {
			t.Fatalf("%s: %d of %d rejected matches released", name, tc.tier.released.Load(), n)
		}
	}
}
