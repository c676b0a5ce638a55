package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/hackkv/hack"
	"github.com/hackkv/hack/internal/api"
	"github.com/hackkv/hack/internal/model"
)

var updateGoldens = flag.Bool("update", false, "rewrite golden files")

// generateIDs streams one /v1/generate request and returns the emitted
// token ids — the reference stream for the byte-identity checks.
func generateIDs(t *testing.T, base string, prompt []int, maxNew int, seed int64) []int {
	t.Helper()
	body, _ := json.Marshal(map[string]any{
		"prompt": prompt, "max_new_tokens": maxNew, "seed": seed,
	})
	resp, err := http.Post(base+"/v1/generate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("generate: %d: %s", resp.StatusCode, b)
	}
	var ids []int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			ID    int    `json:"id"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			if line.Error != "" {
				t.Fatalf("generate trailer error: %s", line.Error)
			}
			return ids
		}
		ids = append(ids, line.ID)
	}
	t.Fatalf("generate stream ended without trailer (%v)", sc.Err())
	return nil
}

// sseCollect reads one SSE response to [DONE], concatenating the text
// deltas (completions "text" or chat delta "content") and returning the
// final usage block.
func sseCollect(t *testing.T, body io.Reader) (text string, completionTokens int) {
	t.Helper()
	sawDone := false
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		payload := strings.TrimPrefix(line, "data: ")
		if payload == "[DONE]" {
			sawDone = true
			break
		}
		var chunk struct {
			Choices []struct {
				Text  string `json:"text"`
				Delta struct {
					Content *string `json:"content"`
				} `json:"delta"`
			} `json:"choices"`
			Usage *struct {
				CompletionTokens int `json:"completion_tokens"`
			} `json:"usage"`
			Error *api.Error `json:"error"`
		}
		if err := json.Unmarshal([]byte(payload), &chunk); err != nil {
			t.Fatalf("bad SSE payload %q: %v", payload, err)
		}
		if chunk.Error != nil {
			t.Fatalf("in-band stream error: %+v", chunk.Error)
		}
		for _, c := range chunk.Choices {
			text += c.Text
			if c.Delta.Content != nil {
				text += *c.Delta.Content
			}
		}
		if chunk.Usage != nil {
			completionTokens = chunk.Usage.CompletionTokens
		}
	}
	if !sawDone {
		t.Fatalf("SSE stream ended without [DONE] (%v)", sc.Err())
	}
	return text, completionTokens
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestOpenAIByteIdentityLocal pins the tentpole property on the local
// role: a /v1/completions request (streaming and not) and a chat
// request produce token streams byte-identical to the equivalent
// /v1/generate call for the same (prompt, seed).
func TestOpenAIByteIdentityLocal(t *testing.T) {
	mux, srv := testMux(t)
	ts := httptest.NewServer(mux)
	defer ts.Close()
	tok := api.NewTokenizer(srv.Model().Vocab)

	const text = "the quick brown fox audits kv caches"
	const maxNew, seed = 6, 11
	want := generateIDs(t, ts.URL, tok.Encode(text), maxNew, seed)
	if len(want) != maxNew {
		t.Fatalf("reference stream has %d tokens, want %d", len(want), maxNew)
	}

	// Non-streaming completions.
	body := fmt.Sprintf(`{"prompt":%q,"max_tokens":%d,"seed":%d}`, text, maxNew, seed)
	resp, err := http.Post(ts.URL+"/v1/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var out struct {
		Choices []struct {
			Text string `json:"text"`
		} `json:"choices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := tok.Encode(out.Choices[0].Text); !sameIDs(got, want) {
		t.Fatalf("completions ids %v != generate ids %v", got, want)
	}

	// Streaming completions.
	body = fmt.Sprintf(`{"prompt":%q,"max_tokens":%d,"seed":%d,"stream":true}`, text, maxNew, seed)
	resp, err = http.Post(ts.URL+"/v1/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	streamed, completionTokens := sseCollect(t, resp.Body)
	resp.Body.Close()
	if got := tok.Encode(streamed); !sameIDs(got, want) {
		t.Fatalf("SSE ids %v != generate ids %v", got, want)
	}
	if completionTokens != maxNew {
		t.Errorf("final chunk usage completion_tokens %d, want %d", completionTokens, maxNew)
	}

	// Streaming chat: the flattened transcript is the prompt.
	messages := []api.ChatMessage{
		{Role: "system", Content: "you are terse"},
		{Role: "user", Content: text},
	}
	chatWant := generateIDs(t, ts.URL, tok.Encode(api.ChatPromptText(messages)), maxNew, seed)
	msgs, _ := json.Marshal(messages)
	body = fmt.Sprintf(`{"messages":%s,"max_tokens":%d,"seed":%d,"stream":true}`, msgs, maxNew, seed)
	resp, err = http.Post(ts.URL+"/v1/chat/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	streamed, _ = sseCollect(t, resp.Body)
	resp.Body.Close()
	if got := tok.Encode(streamed); !sameIDs(got, chatWant) {
		t.Fatalf("chat SSE ids %v != generate ids %v", got, chatWant)
	}
}

// TestOpenAIByteIdentityRouter runs the same identity check through the
// real 4-daemon CLI deployment: router + prefill + two decode replicas,
// with the OpenAI stream served by the router and compared against the
// router's own /v1/generate.
func TestOpenAIByteIdentityRouter(t *testing.T) {
	const maxNew = 4
	common := []string{"-addr", "127.0.0.1:0", "-wire", "127.0.0.1:0",
		"-prefill-workers", "1", "-decode-par", "1", "-max-new", fmt.Sprint(maxNew)}

	preWire, _, _, preDone := bootRole(t, append([]string{"-role", "prefill"}, common...)...)
	dec1Wire, _, _, dec1Done := bootRole(t, append([]string{"-role", "decode"}, common...)...)
	dec2Wire, _, _, dec2Done := bootRole(t, append([]string{"-role", "decode"}, common...)...)
	_, routerHTTP, _, routerDone := bootRole(t,
		"-role", "router", "-addr", "127.0.0.1:0",
		"-peer-prefills", preWire,
		"-peer-decodes", dec1Wire+","+dec2Wire,
		"-max-new", fmt.Sprint(maxNew))

	// The router serves the toy spec; its tokenizer id space follows.
	tok := api.NewTokenizer(model.Toy().Vocab)
	const text = "route this prompt across the kv wire"
	const seed = 3
	want := generateIDs(t, routerHTTP, tok.Encode(text), maxNew, seed)
	if len(want) != maxNew {
		t.Fatalf("reference stream has %d tokens, want %d", len(want), maxNew)
	}

	// Streaming completions through the fleet.
	body := fmt.Sprintf(`{"prompt":%q,"max_tokens":%d,"seed":%d,"stream":true}`, text, maxNew, seed)
	resp, err := http.Post(routerHTTP+"/v1/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/event-stream") {
		t.Fatalf("content type %q", ct)
	}
	streamed, completionTokens := sseCollect(t, resp.Body)
	resp.Body.Close()
	if got := tok.Encode(streamed); !sameIDs(got, want) {
		t.Fatalf("routed SSE ids %v != routed generate ids %v", got, want)
	}
	if completionTokens != maxNew {
		t.Errorf("usage completion_tokens %d, want %d", completionTokens, maxNew)
	}

	// Non-streaming chat through the fleet.
	messages := []api.ChatMessage{{Role: "user", Content: text}}
	chatWant := generateIDs(t, routerHTTP, tok.Encode(api.ChatPromptText(messages)), maxNew, seed)
	msgs, _ := json.Marshal(messages)
	body = fmt.Sprintf(`{"messages":%s,"max_tokens":%d,"seed":%d}`, msgs, maxNew, seed)
	resp, err = http.Post(routerHTTP+"/v1/chat/completions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var chat struct {
		Choices []struct {
			Message struct {
				Content string `json:"content"`
			} `json:"message"`
		} `json:"choices"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&chat); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := tok.Encode(chat.Choices[0].Message.Content); !sameIDs(got, chatWant) {
		t.Fatalf("routed chat ids %v != routed generate ids %v", got, chatWant)
	}

	// /v1/models is mounted on the router too.
	resp, err = http.Get(routerHTTP + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), `"Toy"`) || !strings.Contains(string(b), `"HACK"`) {
		t.Fatalf("router /v1/models: %s", b)
	}

	// Drain the whole fleet.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	for name, done := range map[string]chan error{
		"prefill": preDone, "decode1": dec1Done, "decode2": dec2Done, "router": routerDone,
	} {
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("%s exit: %v", name, err)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s did not drain after SIGTERM", name)
		}
	}
}

// TestOpenAISSEClientCancel kills the client mid-SSE-stream and
// requires the engine to see the cancellation (the Canceled metric
// ticks) with no goroutine left behind. Runs under -race in CI.
func TestOpenAISSEClientCancel(t *testing.T) {
	eng, err := hack.New(hack.WithServeConfig(hack.ServeConfig{
		PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 4096,
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
	baseline := runtime.NumGoroutine()

	// A 4096-token budget keeps the engine decoding long after the
	// client walks away.
	resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt":"a very long story","max_tokens":4096,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first SSE frame: %v", err)
	}
	resp.Body.Close() // hang up mid-stream

	deadline := time.Now().Add(15 * time.Second)
	for srv.Metrics().Canceled == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("engine never counted the cancellation: %+v", srv.Metrics())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every goroutine the request spawned must wind down.
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak after cancel: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// routerFleet starts a prefill node, a decode node and a router in
// process, closed at cleanup, with the given per-request token budget.
func routerFleet(t *testing.T, maxNew int) *hack.DisaggServer {
	t.Helper()
	start := func(role hack.Role, opts ...hack.Option) *hack.DisaggServer {
		eng, err := hack.New(append([]hack.Option{
			hack.WithMethod("HACK"), hack.WithRole(role),
			hack.WithServeConfig(hack.ServeConfig{
				PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: maxNew,
			}),
		}, opts...)...)
		if err != nil {
			t.Fatal(err)
		}
		srv, err := eng.ListenDisagg(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return srv
	}
	prefill := start(hack.RolePrefill)
	decode := start(hack.RoleDecode)
	return start(hack.RoleRouter,
		hack.WithPeers([]string{prefill.WireAddr()}, []string{decode.WireAddr()}),
	)
}

// TestRoutedSSEClientCancel is TestOpenAISSEClientCancel through the
// router: the handler reads the router's stream directly, so a client
// that hangs up mid-stream must still end the router's request (its
// Failed counter ticks with the context error) and leave no goroutine
// behind.
func TestRoutedSSEClientCancel(t *testing.T) {
	// 1024 tokens keep the decode node busy for hundreds of milliseconds
	// (the hang-up lands within tens); the node decodes an abandoned
	// request to its budget, which its shutdown then waits out.
	router := routerFleet(t, 1024)
	ts := httptest.NewServer(router.Handler())
	defer ts.Close()
	baseline := runtime.NumGoroutine()

	resp, err := http.Post(ts.URL+"/v1/completions", "application/json",
		strings.NewReader(`{"prompt":"a very long story","max_tokens":1024,"stream":true}`))
	if err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(resp.Body)
	if _, err := br.ReadString('\n'); err != nil {
		t.Fatalf("first SSE frame: %v", err)
	}
	resp.Body.Close() // hang up mid-stream

	deadline := time.Now().Add(15 * time.Second)
	for router.Report().Failed == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("router never ended the abandoned request: %+v", router.Report())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if rep := router.Report(); rep.Completed != 0 {
		t.Fatalf("abandoned request ran to completion: %+v", rep)
	}
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline+2 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	buf := make([]byte, 1<<20)
	t.Fatalf("goroutine leak after cancel: baseline %d, now %d\n%s",
		baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
}

// promTypeLines scrapes /metrics in Prometheus form and returns only
// the "# TYPE" schema lines — the stable metric inventory, independent
// of counts.
func promTypeLines(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus content type %q", ct)
	}
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "# TYPE ") {
			lines = append(lines, sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(lines, "\n") + "\n"
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGoldens {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if got != string(want) {
		t.Fatalf("golden %s mismatch:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestMetricsPrometheusGoldens pins the Prometheus metric inventory
// ("# TYPE" lines) exposed by the shared /metrics route on both roles —
// the negotiation and the schema can no longer drift between them.
func TestMetricsPrometheusGoldens(t *testing.T) {
	// Local role, after one generation so every family is live.
	mux, srv := testMux(t)
	local := httptest.NewServer(mux)
	defer local.Close()
	tok := api.NewTokenizer(srv.Model().Vocab)
	generateIDs(t, local.URL, tok.Encode("warm up"), 2, 1)
	checkGolden(t, "prom_local_types.golden", promTypeLines(t, local.URL))

	// Router role over an in-process fleet via the public facade.
	router := routerFleet(t, 8)
	routerTS := httptest.NewServer(router.Handler())
	defer routerTS.Close()
	generateIDs(t, routerTS.URL, tok.Encode("warm up"), 2, 1)
	checkGolden(t, "prom_router_types.golden", promTypeLines(t, routerTS.URL))
}
