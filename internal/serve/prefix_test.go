package serve

import (
	"context"
	"errors"
	"net"
	"strings"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/kvcache"
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
		Backend:               prefixTestBackend,
		PrefixCacheBytes:      budget,
		PrefixCachePageTokens: 8,
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
	cfg.PrefixCacheBytes = int64(4 * 8 * prefixBytesPerToken(model.Toy(), 8, 2, 8))
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

// TestPrefixCacheConfigValidation pins tier construction errors: page
// granularity off the partition grid surfaces the typed alignment
// error, and backends that cannot page their cache are rejected
// outright.
func TestPrefixCacheConfigValidation(t *testing.T) {
	cfg := prefixServerConfig(1 << 20)
	cfg.PrefixCachePageTokens = 12 // not a multiple of Π=8
	_, err := New(cfg)
	var pe *kvcache.PageAlignmentError
	if !errors.As(err, &pe) {
		t.Fatalf("misaligned page tokens: %v", err)
	}

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
}

// TestPrefixSnapshotOmittedWhenDisabled keeps the JSON surface stable
// for deployments without the tier.
func TestPrefixSnapshotOmittedWhenDisabled(t *testing.T) {
	s := newTestServer(t, Config{PrefillWorkers: 1, DecodeParallelism: 1})
	if s.Metrics().PrefixCache != nil {
		t.Fatal("prefix stats present with the tier disabled")
	}
}

// TestRemotePrefixCacheRoundTrip exercises the wire-framed tier stub:
// two serving replicas share one cache node over TCP, so a prompt
// prefilled on replica A warm-starts on replica B with an identical
// stream.
func TestRemotePrefixCacheRoundTrip(t *testing.T) {
	spec := model.Toy()
	hello := netsim.Hello{
		Method: "HACK", SpecName: "toy", Vocab: spec.Vocab, ModelSeed: 0,
	}
	shared, err := NewPrefixCache(1<<20, 8, 8, prefixBytesPerToken(spec, 8, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := ServePrefixCache(ln, shared, hello)
	defer node.Close()

	dial := func() PrefixCacheBackend {
		t.Helper()
		conn, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		be, err := NewRemotePrefixCache(conn, hello)
		if err != nil {
			t.Fatal(err)
		}
		return be
	}
	newReplica := func() *Server {
		cfg := prefixServerConfig(0)
		cfg.PrefixCache = dial()
		return newTestServer(t, cfg)
	}
	a, b := newReplica(), newReplica()
	prompt := promptFor(4, 21, spec.Vocab)

	coldA := submitOne(t, a, prompt, 9)
	warmB := submitOne(t, b, prompt, 9)
	for i := range coldA {
		if coldA[i] != warmB[i] {
			t.Fatalf("token %d: replica A %d, replica B %d", i, coldA[i], warmB[i])
		}
	}
	if pcB := b.Metrics().PrefixCache; pcB.Hits != 1 || pcB.TokensReused != 16 {
		t.Fatalf("replica B stats %+v, want 1 hit of 16 tokens", pcB)
	}
	st, err := shared.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Hits != 1 || st.Inserts != 2 {
		t.Fatalf("cache node stats %+v", st)
	}
}

// TestRemotePrefixCacheRefusesMismatch checks the deployment guard:
// a client advertising a different model seed is refused at handshake.
func TestRemotePrefixCacheRefusesMismatch(t *testing.T) {
	spec := model.Toy()
	shared, err := NewPrefixCache(1<<20, 8, 8, prefixBytesPerToken(spec, 8, 2, 8))
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	node := ServePrefixCache(ln, shared, netsim.Hello{Method: "HACK", SpecName: "toy", Vocab: spec.Vocab})
	defer node.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetDeadline(time.Now().Add(5 * time.Second))
	_, err = NewRemotePrefixCache(conn, netsim.Hello{Method: "HACK", SpecName: "toy", Vocab: spec.Vocab, ModelSeed: 999})
	if err == nil {
		t.Fatal("mismatched deployment accepted")
	}
}
