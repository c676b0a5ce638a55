package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/hackkv/hack"
)

// exec runs the daemon CLI body in-process and returns its stdout,
// stderr and error — no os/exec involved.
func exec(t *testing.T, args ...string) (string, string, error) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	err := run(args, &stdout, &stderr)
	return stdout.String(), stderr.String(), err
}

// Unknown registry names are usage errors (exit 2 in main) and list the
// valid spellings, per the CLI convention.
func TestUnknownNamesAreUsageErrors(t *testing.T) {
	cases := []struct {
		args []string
		want string // a valid name the error must list
	}{
		{[]string{"-method", "nope"}, "HACK"},
		{[]string{"-method", "nope"}, "Baseline"},
	}
	for _, c := range cases {
		_, _, err := exec(t, c.args...)
		if err == nil {
			t.Fatalf("args %v: expected an error", c.args)
		}
		var ue usageError
		if !errors.As(err, &ue) {
			t.Fatalf("args %v: error %v is not a usage error", c.args, err)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("args %v: error %q does not list %q", c.args, err, c.want)
		}
	}
}

func TestBadFlagValuesAreUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-batch", "not-a-number"},
		{"-batch", "-1"},
		{"-queue", "-2"},
		{"-max-new", "-1"},
		{"-prefill-workers", "-1"},
		{"-decode-par", "-1"},
		{"-drain-timeout", "-5s"},
		{"-no-such-flag"},
		{"-scheduler", "load-aware"}, // undefined: placement is the simulator's concern
	} {
		_, _, err := exec(t, args...)
		var ue usageError
		if err == nil || !errors.As(err, &ue) {
			t.Errorf("args %v: err = %v, want usage error", args, err)
		}
	}
}

// -h prints usage and exits 0 (run returns nil).
func TestHelpExitsZero(t *testing.T) {
	_, stderr, err := exec(t, "-h")
	if err != nil {
		t.Fatalf("-h: %v", err)
	}
	if !strings.Contains(stderr, "-prefill-workers") || !strings.Contains(stderr, "-addr") {
		t.Errorf("-h usage output missing flags:\n%s", stderr)
	}
}

// A bind failure on a valid configuration is a runtime error (exit 1),
// not a usage error.
func TestBindFailureIsRuntimeError(t *testing.T) {
	_, _, err := exec(t, "-addr", "256.256.256.256:0")
	if err == nil {
		t.Fatal("expected a bind error")
	}
	var ue usageError
	if errors.As(err, &ue) {
		t.Fatalf("bind error %v misclassified as usage error", err)
	}
}

// testMux builds a live handler over a deterministic single-worker
// server.
func testMux(t *testing.T) (http.Handler, *hack.Server) {
	t.Helper()
	eng, err := hack.New(hack.WithServeConfig(hack.ServeConfig{
		PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 8,
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
	return srv.Handler(), srv
}

func TestGenerateStreamsNDJSON(t *testing.T) {
	mux, _ := testMux(t)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	body := `{"prompt":[1,2,3,4],"max_new_tokens":5,"seed":7}`
	resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("content type %q", ct)
	}
	sc := bufio.NewScanner(resp.Body)
	var toks []int
	sawTrailer := false
	for sc.Scan() {
		var line struct {
			Index *int `json:"index"`
			ID    int  `json:"id"`
			Done  bool `json:"done"`
			N     int  `json:"tokens"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		if line.Done {
			sawTrailer = true
			if line.N != len(toks) {
				t.Errorf("trailer tokens %d, want %d", line.N, len(toks))
			}
			break
		}
		if line.Index == nil || *line.Index != len(toks) {
			t.Fatalf("line %q: bad index, want %d", sc.Text(), len(toks))
		}
		toks = append(toks, line.ID)
	}
	if !sawTrailer || len(toks) != 5 {
		t.Errorf("stream gave %d tokens, trailer %v", len(toks), sawTrailer)
	}
}

func TestGenerateRejectsBadRequests(t *testing.T) {
	mux, _ := testMux(t)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	if resp, err := http.Get(ts.URL + "/v1/generate"); err != nil {
		t.Fatal(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET generate: %d, want 405", resp.StatusCode)
	}
	for _, body := range []string{"{not json", `{"prompt":[]}`, `{"prompt":[999999]}`} {
		resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: %d, want 400", body, resp.StatusCode)
		}
	}
}

func TestHealthAndMetricsEndpoints(t *testing.T) {
	mux, srv := testMux(t)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz: %d, want 200", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap hack.ServeSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics decode: %v", err)
	}
	resp.Body.Close()

	// Draining flips healthz to 503 and generate to 503.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Post(ts.URL+"/v1/generate", "application/json",
		strings.NewReader(`{"prompt":[1]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining generate: %d, want 503", resp.StatusCode)
	}
}

// TestHTTPConcurrentSoak streams 64 concurrent generations through the
// daemon's HTTP handler and requires zero dropped tokens: every
// response must carry its full token budget with contiguous indices
// and a clean trailer. Run under -race in CI.
func TestHTTPConcurrentSoak(t *testing.T) {
	eng, err := hack.New(hack.WithServeConfig(hack.ServeConfig{
		PrefillWorkers: 4, MaxBatch: 16, QueueCap: 64, MaxNewTokens: 4,
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

	const nReqs, maxNew = 64, 4
	errs := make([]error, nReqs)
	var wg sync.WaitGroup
	for i := 0; i < nReqs; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"prompt":[%d,%d,%d],"max_new_tokens":%d,"seed":%d}`,
				1+i%50, 2+i%50, 3+i%50, maxNew, i)
			resp, err := http.Post(ts.URL+"/v1/generate", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			toks := 0
			for sc.Scan() {
				var line struct {
					Index *int   `json:"index"`
					Done  bool   `json:"done"`
					N     int    `json:"tokens"`
					Error string `json:"error"`
				}
				if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
					errs[i] = fmt.Errorf("bad line %q: %v", sc.Text(), err)
					return
				}
				if line.Done {
					if line.Error != "" || line.N != maxNew || toks != maxNew {
						errs[i] = fmt.Errorf("trailer %+v after %d tokens", line, toks)
					}
					return
				}
				if line.Index == nil || *line.Index != toks {
					errs[i] = fmt.Errorf("line %q: want index %d (dropped token)", sc.Text(), toks)
					return
				}
				toks++
			}
			errs[i] = fmt.Errorf("stream ended without trailer after %d tokens (err %v)", toks, sc.Err())
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	snap := srv.Metrics()
	if snap.Completed != nReqs || snap.TokensStreamed != nReqs*maxNew {
		t.Errorf("snapshot completed %d tokens %d, want %d/%d",
			snap.Completed, snap.TokensStreamed, nReqs, nReqs*maxNew)
	}
}

// syncBuffer is a goroutine-safe writer for capturing the daemon's
// stdout while it runs.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestDaemonServesAndDrainsOnSIGTERM boots the real daemon on an
// ephemeral port, streams a generation over HTTP, then delivers a real
// SIGTERM and requires a clean (exit-0) graceful drain.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	var stdout, stderr syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-prefill-workers", "1", "-max-new", "4"},
			&stdout, &stderr)
	}()

	// Wait for the announced address.
	var base string
	deadline := time.Now().Add(10 * time.Second)
	for base == "" {
		if time.Now().After(deadline) {
			t.Fatalf("daemon never announced its address; stdout=%q stderr=%q", stdout.String(), stderr.String())
		}
		if out := stdout.String(); strings.Contains(out, "listening on http://") {
			rest := out[strings.Index(out, "http://"):]
			base = strings.Fields(rest)[0]
		} else {
			time.Sleep(5 * time.Millisecond)
		}
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	resp, err = http.Post(base+"/v1/generate", "application/json",
		strings.NewReader(`{"prompt":[5,6,7],"max_new_tokens":4}`))
	if err != nil {
		t.Fatal(err)
	}
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines++
	}
	resp.Body.Close()
	if lines != 5 { // 4 tokens + trailer
		t.Errorf("streamed %d lines, want 5", lines)
	}

	// Real signal: the registered handler must catch it and drain.
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	out := stdout.String()
	if !strings.Contains(out, "draining") || !strings.Contains(out, "drained") {
		t.Errorf("drain messages missing from stdout:\n%s", out)
	}
}

// Unknown roles are usage errors listing the valid names.
func TestUnknownRoleIsUsageError(t *testing.T) {
	_, _, err := exec(t, "-role", "nope")
	var ue usageError
	if err == nil || !errors.As(err, &ue) {
		t.Fatalf("err = %v, want usage error", err)
	}
	if !strings.Contains(err.Error(), "router") {
		t.Errorf("error %q does not list the valid roles", err)
	}
}

// TestMetricsPrometheusNegotiation covers the /metrics content
// negotiation on the local role: JSON by default, Prometheus text with
// ?format=prometheus or an Accept header preferring text/plain.
func TestMetricsPrometheusNegotiation(t *testing.T) {
	mux, _ := testMux(t)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("default content type %q", ct)
	}
	if !strings.Contains(string(body), `"submitted"`) {
		t.Fatalf("JSON metrics body: %q", body)
	}

	resp, err = http.Get(ts.URL + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("prometheus content type %q", ct)
	}
	for _, want := range []string{
		"# TYPE hackserved_submitted_total counter",
		"hackserved_ttft_seconds{quantile=\"0.99\"}",
		"# TYPE hackserved_draining gauge",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("prometheus body missing %q:\n%s", want, body)
		}
	}

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "hackserved_submitted_total") {
		t.Errorf("Accept: text/plain did not negotiate prometheus:\n%s", body)
	}
}

// bootRole starts one daemon role in a goroutine and returns the
// addresses it announced plus its exit channel.
func bootRole(t *testing.T, args ...string) (wire, httpBase string, out *syncBuffer, done chan error) {
	t.Helper()
	out = &syncBuffer{}
	done = make(chan error, 1)
	go func() {
		var stderr syncBuffer
		done <- run(args, out, &stderr)
	}()
	deadline := time.Now().Add(15 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("daemon %v never announced itself; stdout=%q", args, out.String())
		}
		s := out.String()
		if i := strings.Index(s, "wire="); i >= 0 {
			wire = strings.Fields(s[i+len("wire="):])[0]
		}
		if i := strings.Index(s, "http://"); i >= 0 {
			httpBase = strings.Fields(s[i:])[0]
		}
		if httpBase != "" && (wire != "" || !strings.Contains(strings.Join(args, " "), "-wire")) {
			return wire, httpBase, out, done
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestDisaggDaemonThreeRoles boots the whole disaggregated deployment
// through the real CLI — one router, one prefill node, two decode
// replicas, four in-process daemons — streams a generation through the
// router's HTTP API, checks the deployment metrics, and drains
// everything with one SIGTERM.
func TestDisaggDaemonThreeRoles(t *testing.T) {
	const maxNew = 5
	common := []string{"-addr", "127.0.0.1:0", "-wire", "127.0.0.1:0",
		"-prefill-workers", "1", "-decode-par", "1", "-max-new", fmt.Sprint(maxNew)}

	preWire, preHTTP, _, preDone := bootRole(t, append([]string{"-role", "prefill"}, common...)...)
	dec1Wire, _, _, dec1Done := bootRole(t, append([]string{"-role", "decode"}, common...)...)
	dec2Wire, _, _, dec2Done := bootRole(t, append([]string{"-role", "decode"}, common...)...)
	_, routerHTTP, routerOut, routerDone := bootRole(t,
		"-role", "router", "-addr", "127.0.0.1:0",
		"-peer-prefills", preWire,
		"-peer-decodes", dec1Wire+","+dec2Wire,
		"-max-new", fmt.Sprint(maxNew))

	// One generation through the whole pipeline.
	resp, err := http.Post(routerHTTP+"/v1/generate", "application/json",
		strings.NewReader(`{"prompt":[5,6,7,8],"max_new_tokens":5,"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var tokens int
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line struct {
			Index *int   `json:"index"`
			Done  bool   `json:"done"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line.Done {
			if line.Error != "" {
				t.Fatalf("stream trailer error: %s", line.Error)
			}
			break
		}
		if line.Index == nil || *line.Index != tokens {
			t.Fatalf("line %q: want index %d", sc.Text(), tokens)
		}
		tokens++
	}
	resp.Body.Close()
	if tokens != maxNew {
		t.Fatalf("streamed %d tokens, want %d", tokens, maxNew)
	}

	// The deployment view shows the KV bytes that crossed each link.
	resp, err = http.Get(routerHTTP + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var rep hack.DisaggReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if rep.Completed != 1 || len(rep.LinkKVBytes) < 2 || len(rep.Replicas) != 2 {
		t.Fatalf("router report: %+v", rep)
	}
	resp, err = http.Get(routerHTTP + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "hackserved_router_completed_total 1") {
		t.Fatalf("router prometheus metrics: %s", b)
	}

	// The prefill node's own endpoint counts its work.
	resp, err = http.Get(preHTTP + "/metrics?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "hackserved_prefill_prefills_total 1") {
		t.Fatalf("prefill prometheus metrics: %s", b)
	}

	// One SIGTERM reaches every in-process daemon; all must drain.
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
	if out := routerOut.String(); !strings.Contains(out, "router drained") {
		t.Errorf("router drain message missing:\n%s", out)
	}
}
