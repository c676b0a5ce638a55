package disagg

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
	"github.com/hackkv/hack/internal/workload"
)

// The deployment every test serves: the multi-layer Toy spec with a
// fixed model seed and token budget. Reference streams come from a
// single-process serve.Server with the same parameters — the
// disaggregated pipeline must reproduce them byte-for-byte.
const (
	testModelSeed = 11
	testMaxNew    = 12
)

func testServeConfig() serve.Config {
	return serve.Config{
		ModelSeed:      testModelSeed,
		PrefillWorkers: 1,
		MaxBatch:       4,
		QueueCap:       64,
		MaxNewTokens:   testMaxNew,
	}
}

func newReference(t *testing.T) *serve.Server {
	t.Helper()
	s, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	return s
}

func refTokens(t *testing.T, ref *serve.Server, req Request) []int {
	t.Helper()
	st, err := ref.Submit(context.Background(), serve.Request{
		Prompt: req.Prompt, MaxNewTokens: req.MaxNewTokens, EOS: req.EOS, Seed: req.Seed,
	})
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

func collectRouted(st *Stream) ([]int, error) {
	var out []int
	for tok := range st.Tokens() {
		if tok.Index != len(out) {
			return nil, fmt.Errorf("token index %d at position %d", tok.Index, len(out))
		}
		out = append(out, tok.ID)
	}
	return out, st.Err()
}

// cluster is one in-process loopback deployment: a router fronting one
// prefill node and n decode replicas, every tier on 127.0.0.1.
type cluster struct {
	router  *Router
	prefill *Node
	decodes []*Node
}

func newCluster(t *testing.T, nDecode int, tweak func(*RouterConfig)) *cluster {
	t.Helper()
	p, err := NewNode(NodeConfig{
		Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	c := &cluster{prefill: p}
	rc := RouterConfig{
		Prefills:  []string{p.Addr()},
		ModelSeed: testModelSeed,
		HTTPAddr:  "127.0.0.1:0",
	}
	for i := 0; i < nDecode; i++ {
		d, err := NewNode(NodeConfig{
			Addr: "127.0.0.1:0", HTTPAddr: "127.0.0.1:0", Serve: testServeConfig(),
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		c.decodes = append(c.decodes, d)
		rc.Decodes = append(rc.Decodes, d.Addr())
	}
	if tweak != nil {
		tweak(&rc)
	}
	r, err := NewRouter(rc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	c.router = r
	return c
}

// scenarioRequests replays a simulator workload live: a deterministic
// Poisson trace drawn from one of the paper's datasets, with lengths
// folded down to the Toy model's serving range.
func scenarioRequests(t *testing.T, sc int, ds workload.Dataset, n int) []Request {
	t.Helper()
	trace, err := workload.Trace(ds, 50, n, int64(sc+1))
	if err != nil {
		t.Fatal(err)
	}
	vocab := model.Toy().Vocab
	reqs := make([]Request, n)
	for i, tr := range trace {
		inLen := tr.InputLen%14 + 2
		outLen := tr.OutputLen%(testMaxNew-2) + 2
		prompt := make([]int, inLen)
		for j := range prompt {
			prompt[j] = (sc*31 + i*7 + j*5 + 1) % vocab
		}
		reqs[i] = Request{Prompt: prompt, MaxNewTokens: outLen, Seed: int64(sc*100 + i)}
	}
	return reqs
}

// runScenario pushes every request through the router concurrently and
// requires each stream to match the single-process reference exactly.
func runScenario(t *testing.T, c *cluster, ref *serve.Server, reqs []Request) {
	t.Helper()
	want := make([][]int, len(reqs))
	for i, req := range reqs {
		want[i] = refTokens(t, ref, req)
	}
	got := make([][]int, len(reqs))
	errs := make([]error, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			st, err := c.router.Submit(context.Background(), req)
			if err != nil {
				errs[i] = err
				return
			}
			got[i], errs[i] = collectRouted(st)
		}(i, req)
	}
	wg.Wait()
	for i := range reqs {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if len(got[i]) != len(want[i]) {
			t.Fatalf("request %d: routed %d tokens, reference %d\nrouted    %v\nreference %v",
				i, len(got[i]), len(want[i]), got[i], want[i])
		}
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("request %d token %d diverged: routed %d, reference %d\nrouted    %v\nreference %v",
					i, j, got[i][j], want[i][j], got[i], want[i])
			}
		}
	}
}

// TestLoopbackScenariosByteIdentical is the acceptance test: a
// router + 1 prefill + 2 decode loopback deployment replays three
// simulator workload scenarios live, plus a replica-kill chaos pass,
// and every stream matches the single-process runtime byte-for-byte.
func TestLoopbackScenariosByteIdentical(t *testing.T) {
	c := newCluster(t, 2, nil)
	ref := newReference(t)

	scenarios := []struct {
		name string
		ds   workload.Dataset
	}{
		{"imdb", workload.IMDb()},
		{"arxiv", workload.ArXiv()},
		{"cocktail", workload.Cocktail()},
	}
	for sc, s := range scenarios {
		t.Run(s.name, func(t *testing.T) {
			runScenario(t, c, ref, scenarioRequests(t, sc, s.ds, 5))
		})
	}

	// Chaos: kill one decode replica outright (connections severed, no
	// drain) and replay a scenario. The router's first attempts still
	// route to the dead replica — its breaker opens only after failed
	// dials — so the pass exercises retry, and streams must stay
	// byte-identical.
	t.Run("replica-kill", func(t *testing.T) {
		c.decodes[0].Kill()
		runScenario(t, c, ref, scenarioRequests(t, 7, workload.IMDb(), 4))
		rep := c.router.Report()
		if rep.Retries == 0 {
			t.Fatal("replica kill triggered no retries")
		}
		if rep.Failed != 0 {
			t.Fatalf("%d requests failed after replica kill", rep.Failed)
		}
	})

	rep := c.router.Report()
	if rep.Completed != int64(3*5+4) {
		t.Fatalf("completed %d requests, want %d", rep.Completed, 3*5+4)
	}
	if len(rep.LinkKVBytes) == 0 {
		t.Fatal("no per-link KV byte accounting")
	}
	pre := "prefill→router " + c.prefill.Addr()
	if rep.LinkKVBytes[pre] == 0 {
		t.Fatalf("no KV bytes on %q: %v", pre, rep.LinkKVBytes)
	}
	dec := "router→decode " + c.decodes[1].Addr()
	if rep.LinkKVBytes[dec] == 0 {
		t.Fatalf("no KV bytes on %q: %v", dec, rep.LinkKVBytes)
	}
	if rep.TransferSeconds.P99 <= 0 {
		t.Fatalf("transfer latency summary empty: %+v", rep.TransferSeconds)
	}
}

// stubReplica speaks just enough of the wire protocol to accept one
// decode job, stream a fixed token prefix, and drop the connection —
// a replica dying mid-stream, deterministically.
func stubReplica(t *testing.T, tokens []TokenMsg) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hello := netsim.Hello{Role: "decode", NodeID: "stub", Method: "hack",
		ModelSeed: testModelSeed, SpecName: model.Toy().Name, Vocab: model.Toy().Vocab}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := netsim.AcceptHandshake(conn, hello, nil); err != nil {
					return
				}
				for {
					mt, _, err := netsim.ReadMessage(conn)
					if err != nil {
						return // the router's probe just closes
					}
					if mt == netsim.MsgTransferEnd {
						break
					}
				}
				for _, tok := range tokens {
					if err := writeJSON(conn, netsim.MsgToken, tok); err != nil {
						return
					}
				}
				// Die mid-stream: no MsgDone, just a severed connection.
			}()
		}
	}()
	return ln.Addr().String(), func() { ln.Close() }
}

// TestFailoverMidStream kills a replica after it streamed a prefix of
// the response and requires the router to resume on the second replica
// with no duplicated or missing tokens — and no goroutine leak.
func TestFailoverMidStream(t *testing.T) {
	req := Request{Prompt: []int{9, 8, 7, 6, 5, 4}, MaxNewTokens: 10, Seed: 42}
	ref, err := serve.New(testServeConfig())
	if err != nil {
		t.Fatal(err)
	}
	want := refTokens(t, ref, req)
	ref.Shutdown(context.Background())
	if len(want) < 4 {
		t.Fatalf("reference stream too short to split: %v", want)
	}

	before := runtime.NumGoroutine()

	// The stub streams the true first three tokens, then drops dead.
	prefix := []TokenMsg{{Index: 0, ID: want[0]}, {Index: 1, ID: want[1]}, {Index: 2, ID: want[2]}}
	stub, stopStub := stubReplica(t, prefix)
	defer stopStub()

	func() {
		p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
		if err != nil {
			t.Fatal(err)
		}
		defer d.Close()
		// The stub registers first: with equal load scores the router
		// places the first attempt on it deterministically.
		r, err := NewRouter(RouterConfig{
			Prefills: []string{p.Addr()}, Decodes: []string{stub, d.Addr()},
			ModelSeed: testModelSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()

		st, err := r.Submit(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		got, err := collectRouted(st)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("failover stream has %d tokens, want %d\ngot  %v\nwant %v", len(got), len(want), got, want)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("token %d diverged after failover: got %d want %d\ngot  %v\nwant %v",
					i, got[i], want[i], got, want)
			}
		}
		rep := r.Report()
		if rep.Retries != 1 || rep.Failovers != 1 {
			t.Fatalf("retries %d failovers %d, want 1/1", rep.Retries, rep.Failovers)
		}
	}()
	stopStub()

	// Everything is closed: the deployment must not leak goroutines.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines leaked: %d before, %d after\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDrainAwareRemoval drains the only replica and requires the router
// to learn the drain from the replica's own hello when it dials it for a
// decode job — it polls nothing — before relaying any KV, and then keep
// it out of placement: that request and the next fail with ErrNoReplicas
// instead of landing on a draining node.
func TestDrainAwareRemoval(t *testing.T) {
	c := newCluster(t, 1, func(rc *RouterConfig) { rc.RetryBackoff = 5 * time.Millisecond })
	ref := newReference(t)

	// Healthy first: one request round-trips.
	req := Request{Prompt: []int{1, 2, 3}, MaxNewTokens: 4, Seed: 5}
	want := refTokens(t, ref, req)
	st, err := c.router.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := collectRouted(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}

	// The replica's breaker is closed and it is not marked draining, so
	// the router has no reason to dial it: the next decode job is what
	// meets the drain.
	c.decodes[0].Drain()
	for !c.decodes[0].rt.Draining() {
		time.Sleep(time.Millisecond)
	}
	st, err = c.router.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	// Its hello says it is draining, so the router sends it nothing and
	// the request fails as having no replica left, not as a transfer
	// fault; the refused job does not count as one the replica took.
	if _, err := collectRouted(st); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("the only replica drained, got %v, want ErrNoReplicas", err)
	}
	if rep := c.router.Report(); len(rep.Replicas) != 1 || !rep.Replicas[0].Draining || rep.Replicas[0].Requests != 1 {
		t.Fatalf("the draining hello did not mark the replica, or it was sent the job: %+v", rep.Replicas)
	}

	st, err = c.router.Submit(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collectRouted(st); !errors.Is(err, ErrNoReplicas) {
		t.Fatalf("draining replica still placed: %v", err)
	}

	c.router.RemoveReplica(c.decodes[0].Addr())
	if rep := c.router.Report(); len(rep.Replicas) != 0 {
		t.Fatalf("replica not removed: %+v", rep.Replicas)
	}
}

// TestMismatchRefused checks the deployment-compatibility gate: a
// router configured for a different model seed is refused by both tiers
// with a typed handshake error, not a silent divergent stream.
func TestMismatchRefused(t *testing.T) {
	p, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	d, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	// Decode tier: refused at AddReplica.
	if _, err := NewRouter(RouterConfig{
		Prefills: []string{p.Addr()}, Decodes: []string{d.Addr()},
		ModelSeed: testModelSeed + 1,
	}); !errors.Is(err, netsim.ErrHandshakeRefused) {
		t.Fatalf("mismatched decode replica accepted: %v", err)
	}

	// Prefill tier: refused at submission, terminally (no retry storm).
	r, err := NewRouter(RouterConfig{
		Prefills:  []string{p.Addr()},
		ModelSeed: testModelSeed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	st, err := r.Submit(context.Background(), Request{Prompt: []int{1}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := collectRouted(st); !errors.Is(err, netsim.ErrHandshakeRefused) {
		t.Fatalf("mismatched prefill accepted: %v", err)
	}
}

// TestNodeHTTPEndpoints exercises every tier's /healthz and /metrics,
// including the Prometheus content negotiation.
func TestNodeHTTPEndpoints(t *testing.T) {
	c := newCluster(t, 1, nil)
	get := func(url string) (int, string, string) {
		t.Helper()
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, _ := get("http://" + c.decodes[0].HTTPAddr() + "/healthz")
	if code != http.StatusOK || body != "ok\n" {
		t.Fatalf("decode healthz: %d %q", code, body)
	}
	_, body, ct := get("http://" + c.decodes[0].HTTPAddr() + "/metrics")
	if ct != "application/json" || !strings.Contains(body, `"submitted"`) {
		t.Fatalf("decode JSON metrics: %s %q", ct, body)
	}
	_, body, ct = get("http://" + c.decodes[0].HTTPAddr() + "/metrics?format=prometheus")
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") ||
		!strings.Contains(body, "hackserved_submitted_total") {
		t.Fatalf("decode Prometheus metrics: %s %q", ct, body)
	}
	_, body, _ = get("http://" + c.prefill.HTTPAddr() + "/metrics?format=prometheus")
	if !strings.Contains(body, "hackserved_prefill_prefills_total") {
		t.Fatalf("prefill Prometheus metrics: %q", body)
	}
	_, body, _ = get("http://" + c.router.HTTPAddr() + "/metrics")
	if !strings.Contains(body, `"link_kv_bytes"`) {
		t.Fatalf("router report: %q", body)
	}
	_, body, _ = get("http://" + c.router.HTTPAddr() + "/metrics?format=text")
	if !strings.Contains(body, "hackserved_router_requests_total") {
		t.Fatalf("router Prometheus metrics: %q", body)
	}
}

// TestPrefixWarmPrefillShipsColdFrames runs the prefix tier on a
// prefill node: after a donor prompt inserts its pages, a prompt
// sharing its first 128 tokens hits the tier, and the frames the node
// ships are byte-identical to a tierless node's cold prefill of the
// same (prompt, seed).
func TestPrefixWarmPrefillShipsColdFrames(t *testing.T) {
	cold, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: testServeConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	cfg := testServeConfig()
	cfg.PrefixCacheBytes = 1 << 24
	warm, err := NewNode(NodeConfig{Addr: "127.0.0.1:0", Role: "prefill", Serve: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()

	const shared = 128 // two Π=64 pages
	vocab := model.Toy().Vocab
	prompt, donor := make([]int, shared+21), make([]int, shared+40)
	for i := range donor {
		donor[i] = (5*i + 1) % vocab
	}
	copy(prompt, donor[:shared])
	for i := shared; i < len(prompt); i++ {
		prompt[i] = (7*i + 3) % vocab
	}
	pullFramesRaw(t, warm.Addr(), PrefillJob{RequestID: 1, Prompt: donor, Seed: 4})
	job := PrefillJob{RequestID: 2, Prompt: prompt, Seed: 4}
	got, want := pullFramesRaw(t, warm.Addr(), job), pullFramesRaw(t, cold.Addr(), job)
	if len(got) != len(want) {
		t.Fatalf("warm prefill shipped %d frames, cold %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d differs between the warm and the cold prefill", i)
		}
	}
	if pc := warm.Stats().PrefixCache; pc == nil || pc.Hits != 1 || pc.TokensReused != shared {
		t.Fatalf("prefill node prefix stats %+v, want 1 hit reusing %d tokens", pc, shared)
	}
}
