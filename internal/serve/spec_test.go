package serve

import (
	"fmt"
	"testing"

	"github.com/hackkv/hack/internal/attention"
)

// TestSpeculationStreamsByteIdentical pins the tentpole invariant:
// for every draft class and window size, a speculative server's token
// streams are byte-identical to the non-speculative server at the same
// (prompt, seed). Speculation may change when tokens
// are produced, never which.
func TestSpeculationStreamsByteIdentical(t *testing.T) {
	const nReq, promptLen, maxNew = 4, 12, 24
	base := Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4,
		MaxNewTokens: maxNew}
	want := runAll(t, newTestServer(t, base), nReq, promptLen, maxNew)

	for _, draft := range []string{"pi128-nearest", "pi64-nearest", "pi128", "pi64"} {
		for _, k := range []int{1, 2, 4, 8} {
			t.Run(fmt.Sprintf("%s-k%d", draft, k), func(t *testing.T) {
				s := newTestServer(t, Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4,
					MaxNewTokens: maxNew, SpecK: k, SpecDraft: draft})
				got := runAll(t, s, nReq, promptLen, maxNew)
				for i := range want {
					if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
						t.Errorf("request %d diverged under speculation:\nspec %v\nbase %v",
							i, got[i], want[i])
					}
				}
				if k > 1 {
					sp := s.Metrics().Speculation
					if sp == nil {
						t.Fatal("speculation stats missing")
					}
					if sp.Windows == 0 {
						t.Error("no verify windows ran")
					}
					if sp.Fallbacks != 0 {
						t.Errorf("%d requests fell back to plain decoding", sp.Fallbacks)
					}
					if sp.Windows > 0 && sp.TokensPerStep < 1 {
						t.Errorf("tokens per step %.3f < 1", sp.TokensPerStep)
					}
				}
			})
		}
	}
}

// TestSpeculationAcceptanceDeterministic pins that acceptance behavior
// — not just the streams — reproduces per (prompt, seed): two identical
// speculative servers agree on every window/proposed/accepted count.
func TestSpeculationAcceptanceDeterministic(t *testing.T) {
	cfg := Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4,
		MaxNewTokens: 24, SpecK: 4}
	s1 := newTestServer(t, cfg)
	first := runAll(t, s1, 4, 12, 24)
	m1 := s1.Metrics().Speculation
	s2 := newTestServer(t, cfg)
	second := runAll(t, s2, 4, 12, 24)
	m2 := s2.Metrics().Speculation
	for i := range first {
		if fmt.Sprint(first[i]) != fmt.Sprint(second[i]) {
			t.Errorf("request %d diverged across reruns:\n  %v\n  %v", i, first[i], second[i])
		}
	}
	if m1 == nil || m2 == nil {
		t.Fatal("speculation stats missing")
	}
	if m1.Windows != m2.Windows || m1.Proposed != m2.Proposed || m1.Accepted != m2.Accepted {
		t.Errorf("acceptance not deterministic: run1 {w %d p %d a %d} run2 {w %d p %d a %d}",
			m1.Windows, m1.Proposed, m1.Accepted, m2.Windows, m2.Proposed, m2.Accepted)
	}
	if m1.Proposed > 0 && m1.Accepted == 0 {
		t.Logf("note: zero acceptance (draft class never agrees with target on this workload)")
	}
}

// TestSpeculationFallsBackWithoutVerifier pins the degradation path: a
// SpecK server over a backend that cannot batch-verify (FP16) serves
// identically to a plain server, counting fallbacks instead of failing
// requests.
func TestSpeculationFallsBackWithoutVerifier(t *testing.T) {
	fp16 := func(int64) (attention.Backend, error) { return attention.FP16Backend{}, nil }
	base := Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4,
		MaxNewTokens: 16, Backend: fp16}
	want := runAll(t, newTestServer(t, base), 3, 10, 16)

	cfg := base
	cfg.SpecK = 4
	s := newTestServer(t, cfg)
	got := runAll(t, s, 3, 10, 16)
	for i := range want {
		if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
			t.Errorf("request %d diverged:\n  %v\n  %v", i, got[i], want[i])
		}
	}
	sp := s.Metrics().Speculation
	if sp == nil || sp.Fallbacks != 3 {
		t.Fatalf("speculation stats = %+v, want 3 fallbacks", sp)
	}
	if sp.Windows != 0 {
		t.Errorf("%d verify windows ran on an FP16 backend", sp.Windows)
	}
}

// TestSpeculationUnknownDraftClass pins construction-time validation.
func TestSpeculationUnknownDraftClass(t *testing.T) {
	if _, err := New(Config{SpecK: 4, SpecDraft: "nope"}); err == nil {
		t.Fatal("unknown draft class accepted")
	}
	if _, err := New(Config{SpecK: -1}); err == nil {
		t.Fatal("negative SpecK accepted")
	}
}
