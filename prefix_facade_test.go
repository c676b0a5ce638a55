package hack_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/hackkv/hack"
)

// prefixEngine builds a prefix-cache-enabled engine over a HACK variant
// with a small partition size so short prompts span several cache pages.
func prefixEngine(t *testing.T) *hack.Engine {
	t.Helper()
	m, err := hack.MethodNamed("HACK")
	if err != nil {
		t.Fatal(err)
	}
	m.Pi = 8
	eng, err := hack.New(
		hack.WithMethodProfile(m),
		hack.WithPrefixCache(1<<20),
		hack.WithServeConfig(hack.ServeConfig{
			PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 6,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// TestListenPrefixCacheWarmColdIdentity runs the shared-prefix tier end
// to end through the facade: the second generation of the same prompt
// hits the cache, skips prefill over the matched span, and streams the
// same tokens as the cold run.
func TestListenPrefixCacheWarmColdIdentity(t *testing.T) {
	srv, err := prefixEngine(t).Listen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()

	prompt := make([]int, 21)
	for i := range prompt {
		prompt[i] = (7*i + 3) % srv.Model().Vocab
	}
	cold, err := srv.Generate(context.Background(), hack.GenRequest{Prompt: prompt, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := srv.Generate(context.Background(), hack.GenRequest{Prompt: prompt, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(cold) != fmt.Sprint(warm) {
		t.Fatalf("warm stream %v diverged from cold %v", warm, cold)
	}
	pc := srv.Metrics().PrefixCache
	if pc == nil {
		t.Fatal("prefix tier enabled but snapshot carries no stats")
	}
	if pc.Hits != 1 || pc.Misses != 1 || pc.TokensReused != 16 {
		t.Fatalf("prefix stats %+v, want 1 hit reusing 16 tokens", pc)
	}
}

// TestListenPrefixCacheRequiresHomomorphic pins the facade-level guard:
// only homomorphic methods can restore quantized pages.
func TestListenPrefixCacheRequiresHomomorphic(t *testing.T) {
	eng, err := hack.New(
		hack.WithMethod("Baseline"),
		hack.WithPrefixCache(1<<20),
	)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Listen(context.Background()); err == nil {
		t.Fatal("baseline method accepted for prefix caching")
	}
}

// TestListenDisaggRejectsPrefixCache pins where the shared-prefix tier
// may run: where prefill runs. The prefill role hosts it; the decode
// and router roles refuse it.
func TestListenDisaggRejectsPrefixCache(t *testing.T) {
	for _, role := range []hack.Role{hack.RoleDecode, hack.RoleRouter} {
		eng, err := hack.New(
			hack.WithRole(role),
			hack.WithPeers([]string{"127.0.0.1:1"}, nil),
			hack.WithPrefixCache(1<<20),
		)
		if err != nil {
			t.Fatal(err)
		}
		_, err = eng.ListenDisagg(context.Background())
		if err == nil || !strings.Contains(err.Error(), "prefix") {
			t.Fatalf("%s role accepted a prefix cache: %v", role, err)
		}
	}
	eng, err := hack.New(hack.WithRole(hack.RolePrefill), hack.WithPrefixCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	p, err := eng.ListenDisagg(context.Background())
	if err != nil {
		t.Fatalf("prefill role refused a prefix cache: %v", err)
	}
	p.Close()
}

// TestDisaggPrefixTierOnPrefillRole runs the shared-prefix tier on a
// fleet: a prefill node with WithPrefixCache serves a donor prompt,
// then a prompt sharing its first 128 tokens. The routed stream must
// equal the local cold run, and the prefill node's /metrics must show
// the hit.
func TestDisaggPrefixTierOnPrefillRole(t *testing.T) {
	ctx := context.Background()
	const shared = 128 // two Π=64 pages
	prompt, donor := make([]int, shared+21), make([]int, shared+40)
	for i := range prompt {
		prompt[i] = (7*i + 3) % 128
	}
	copy(donor, prompt[:shared])
	for i := shared; i < len(donor); i++ {
		donor[i] = (5*i + 1) % 128
	}
	req := hack.RoutedRequest{Prompt: prompt, MaxNewTokens: 6, Seed: 23}

	local, err := listenEngine(t, "HACK").Listen(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer local.Shutdown(ctx)
	want, err := local.Generate(ctx, hack.GenRequest{Prompt: prompt, MaxNewTokens: req.MaxNewTokens, Seed: req.Seed})
	if err != nil {
		t.Fatal(err)
	}

	prefill, err := disaggEngine(t, hack.RolePrefill, hack.WithPrefixCache(1<<24),
		hack.WithDisaggConfig(hack.DisaggConfig{HTTPAddr: "127.0.0.1:0"})).ListenDisagg(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer prefill.Close()
	decode, err := disaggEngine(t, hack.RoleDecode).ListenDisagg(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer decode.Close()
	router, err := disaggEngine(t, hack.RoleRouter,
		hack.WithPeers([]string{prefill.WireAddr()}, []string{decode.WireAddr()}),
	).ListenDisagg(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer router.Close()

	routed := func(req hack.RoutedRequest) []int {
		t.Helper()
		st, err := router.Submit(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		var out []int
		for tok := range st.Tokens() {
			out = append(out, tok.ID)
		}
		if err := st.Err(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	routed(hack.RoutedRequest{Prompt: donor, MaxNewTokens: 2, Seed: req.Seed})
	if got := routed(req); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("routed prefix-warm %v, local cold %v", got, want)
	}

	resp, err := http.Get("http://" + prefill.HTTPAddr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap hack.ServeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if pc := snap.PrefixCache; pc == nil || pc.Hits != 1 || pc.TokensReused != shared {
		t.Fatalf("prefill node prefix stats %+v, want 1 hit reusing %d tokens", pc, shared)
	}
}

// TestWithPrefixCacheValidation rejects non-positive budgets at option
// time.
func TestWithPrefixCacheValidation(t *testing.T) {
	if _, err := hack.New(hack.WithPrefixCache(0)); err == nil {
		t.Fatal("zero prefix cache budget accepted")
	}
	if _, err := hack.New(hack.WithPrefixCache(-5)); err == nil {
		t.Fatal("negative prefix cache budget accepted")
	}
}
