package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hackkv/hack"
)

// TestPrefixCacheFlagValidation pins the CLI guard rails: the tier runs
// where prefill runs, so the decode and router roles refuse it, the
// prefill role boots with it, and the budget must be non-negative.
func TestPrefixCacheFlagValidation(t *testing.T) {
	var ue usageError
	for _, role := range []string{"decode", "router"} {
		_, _, err := exec(t, "-role", role, "-prefix-cache-bytes", "1048576")
		if !errors.As(err, &ue) || !strings.Contains(err.Error(), "prefix") {
			t.Fatalf("%s role with prefix cache: %v", role, err)
		}
	}
	_, _, err := exec(t, "-prefix-cache-bytes", "-1")
	if !errors.As(err, &ue) {
		t.Fatalf("negative budget: %v", err)
	}

	// A budget of many pages on the prefill role: it boots, then drains.
	_, _, out, done := bootRole(t, "-role", "prefill", "-addr", "127.0.0.1:0", "-wire", "127.0.0.1:0",
		"-prefix-cache-bytes", "1048576")
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("prefill role with prefix cache: %v\n%s", err, out.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("prefill role did not drain after SIGTERM")
	}
}

// TestPrefixCacheThroughDaemon drives the daemon's HTTP surface with
// the shared-prefix tier enabled: the same prompt generated twice
// streams identical tokens, and /metrics exposes the hit.
func TestPrefixCacheThroughDaemon(t *testing.T) {
	eng, err := hack.New(hack.WithPrefixCache(1<<20), hack.WithServeConfig(hack.ServeConfig{
		PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 4,
	}))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := eng.Listen(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Longer than one Π=64 partition, so a page is insertable.
	prompt := make([]int, 70)
	for i := range prompt {
		prompt[i] = (5*i + 1) % srv.Model().Vocab
	}
	body, err := json.Marshal(map[string]any{"prompt": prompt, "seed": 3})
	if err != nil {
		t.Fatal(err)
	}
	generate := func() string {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out bytes.Buffer
		if _, err := out.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("generate: %d: %s", resp.StatusCode, out.String())
		}
		return out.String()
	}
	cold := generate()
	warm := generate()
	if cold != warm {
		t.Fatalf("warm stream diverged from cold:\ncold: %s\nwarm: %s", cold, warm)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap hack.ServeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if snap.PrefixCache == nil {
		t.Fatal("prefix tier enabled but /metrics carries no prefix_cache stats")
	}
	if snap.PrefixCache.Hits != 1 || snap.PrefixCache.TokensReused != 64 {
		t.Fatalf("prefix stats %+v, want 1 hit reusing 64 tokens", snap.PrefixCache)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	var prom bytes.Buffer
	if _, err := prom.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.Contains(prom.String(), "prefix_hits_total") {
		t.Fatal("prometheus exposition lacks prefix_hits_total")
	}
}
