package serve

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/attention"
)

// collect reads a stream to completion and returns its token IDs,
// failing the test if indices are not contiguous from zero.
func collect(t *testing.T, st *Stream) []int {
	t.Helper()
	var out []int
	for tok := range st.Tokens() {
		if tok.Index != len(out) {
			t.Fatalf("token index %d, want %d (dropped or reordered token)", tok.Index, len(out))
		}
		out = append(out, tok.ID)
	}
	return out
}

// promptFor returns a deterministic prompt of the given length.
func promptFor(i, n, vocab int) []int {
	p := make([]int, n)
	for j := range p {
		p[j] = (7*i + 3*j + 1) % vocab
	}
	return p
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// runAll submits n requests and returns each request's full token
// sequence, reading streams concurrently so decode is never blocked on
// an unconsumed channel (it never is anyway: streams are buffered).
func runAll(t *testing.T, s *Server, n, promptLen, maxNew int) [][]int {
	t.Helper()
	vocab := s.Spec().Vocab
	streams := make([]*Stream, n)
	for i := 0; i < n; i++ {
		st, err := s.Submit(context.Background(), Request{
			Prompt: promptFor(i, promptLen, vocab), MaxNewTokens: maxNew, Seed: int64(i),
		})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	out := make([][]int, n)
	for i, st := range streams {
		out[i] = collect(t, st)
		if err := st.Err(); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	return out
}

// TestSingleWorkerDeterministic pins the headline determinism property:
// in single-worker mode (one prefill worker, serial decode stepping)
// the full token streams are byte-identical across server instances.
func TestSingleWorkerDeterministic(t *testing.T) {
	cfg := Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 4, MaxNewTokens: 8}
	first := runAll(t, newTestServer(t, cfg), 6, 12, 8)
	second := runAll(t, newTestServer(t, cfg), 6, 12, 8)
	for i := range first {
		if fmt.Sprint(first[i]) != fmt.Sprint(second[i]) {
			t.Errorf("request %d diverged across reruns:\n  %v\n  %v", i, first[i], second[i])
		}
		if len(first[i]) != 8 {
			t.Errorf("request %d: %d tokens, want 8", i, len(first[i]))
		}
	}
}

// TestBatchingInvariance verifies that a request's tokens do not depend
// on batch composition or parallelism: every quantizer RNG is derived
// from the request seed, so wildly different serving configurations
// stream identical bytes.
func TestBatchingInvariance(t *testing.T) {
	serial := runAll(t, newTestServer(t,
		Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxBatch: 1, MaxNewTokens: 8}), 6, 12, 8)
	parallel := runAll(t, newTestServer(t,
		Config{PrefillWorkers: 3, DecodeParallelism: 4, MaxBatch: 8, MaxNewTokens: 8}), 6, 12, 8)
	for i := range serial {
		if fmt.Sprint(serial[i]) != fmt.Sprint(parallel[i]) {
			t.Errorf("request %d depends on batching:\n  serial   %v\n  parallel %v",
				i, serial[i], parallel[i])
		}
	}
}

// TestEOSStopsGeneration learns a generated token from a free run and
// resubmits with it as the stop token: the stream must end right there.
func TestEOSStopsGeneration(t *testing.T) {
	s := newTestServer(t, Config{PrefillWorkers: 1, DecodeParallelism: 1, MaxNewTokens: 16})
	free := runAll(t, s, 1, 12, 16)[0]
	stopAt := -1
	for i, tok := range free {
		if tok > 0 {
			stopAt = i
			break
		}
	}
	if stopAt < 0 {
		t.Skip("free run generated only token 0; nothing usable as EOS")
	}
	st, err := s.Submit(context.Background(), Request{
		Prompt: promptFor(0, 12, s.Spec().Vocab), MaxNewTokens: 16, Seed: 0, EOS: free[stopAt],
	})
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, st)
	if len(got) != stopAt+1 || got[stopAt] != free[stopAt] {
		t.Errorf("EOS run = %v, want prefix of %v ending at index %d", got, free, stopAt)
	}
}

// TestSubmitValidation exercises the request validation paths.
func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t, Config{})
	ctx := context.Background()
	if _, err := s.Submit(ctx, Request{}); err == nil {
		t.Error("empty prompt accepted")
	}
	if _, err := s.Submit(ctx, Request{Prompt: []int{0, s.Spec().Vocab}}); err == nil {
		t.Error("out-of-vocab token accepted")
	}
	if _, err := s.Submit(ctx, Request{Prompt: []int{1}, MaxNewTokens: -1}); err == nil {
		t.Error("negative MaxNewTokens accepted")
	}
}

// TestConfigValidation exercises the server construction paths.
func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{MaxBatch: -1}); err == nil {
		t.Error("negative MaxBatch accepted")
	}
	s, err := New(Config{PrefillWorkers: 3})
	if err != nil {
		t.Fatal(err)
	}
	got := runAll(t, s, 5, 8, 3)
	for i, toks := range got {
		if len(toks) != 3 {
			t.Errorf("request %d got %d tokens, want 3", i, len(toks))
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("shutdown: %v", err)
	}
}

// TestContextCancellation submits a long request, cancels it mid-stream
// and expects the stream to seal with the context error.
func TestContextCancellation(t *testing.T) {
	s := newTestServer(t, Config{MaxNewTokens: 512})
	ctx, cancel := context.WithCancel(context.Background())
	st, err := s.Submit(ctx, Request{Prompt: promptFor(0, 12, s.Spec().Vocab), MaxNewTokens: 512})
	if err != nil {
		t.Fatal(err)
	}
	// Read two tokens, then cancel.
	for i := 0; i < 2; i++ {
		if _, ok := <-st.Tokens(); !ok {
			t.Fatal("stream ended before cancellation")
		}
	}
	cancel()
	for range st.Tokens() {
	}
	if err := st.Err(); err != context.Canceled {
		t.Errorf("Err() = %v, want context.Canceled", err)
	}
}

// TestMetricsSnapshot checks the live snapshot's accounting after a
// fully drained run.
func TestMetricsSnapshot(t *testing.T) {
	s := newTestServer(t, Config{PrefillWorkers: 2, MaxBatch: 4, MaxNewTokens: 5})
	const n, maxNew = 10, 5
	got := runAll(t, s, n, 10, maxNew)
	total := 0
	for _, toks := range got {
		total += len(toks)
	}
	snap := s.Metrics()
	if snap.Submitted != n || snap.Completed != n {
		t.Errorf("submitted %d completed %d, want %d/%d", snap.Submitted, snap.Completed, n, n)
	}
	if snap.TokensStreamed != int64(total) {
		t.Errorf("tokens streamed %d, want %d", snap.TokensStreamed, total)
	}
	if snap.DecodeSteps <= 0 || snap.BatchOccupancy <= 0 {
		t.Errorf("decode steps %d, occupancy %v: batcher never recorded a step",
			snap.DecodeSteps, snap.BatchOccupancy)
	}
	if snap.BatchOccupancy > 4 {
		t.Errorf("occupancy %v exceeds MaxBatch", snap.BatchOccupancy)
	}
	if snap.TTFT.P50 <= 0 || snap.TBT.P50 <= 0 {
		t.Errorf("latency percentiles not recorded: ttft %+v tbt %+v", snap.TTFT, snap.TBT)
	}
	if snap.Failed != 0 || snap.Canceled != 0 || snap.RejectedFull != 0 {
		t.Errorf("unexpected failures in snapshot: %+v", snap)
	}
}

// TestBackendFactoryError verifies a failing backend seals the stream
// with the factory's error instead of hanging the pipeline.
func TestBackendFactoryError(t *testing.T) {
	s := newTestServer(t, Config{
		PrefillWorkers: 1,
		Backend: func(seed int64) (attention.Backend, error) {
			if seed == 13 {
				return nil, fmt.Errorf("boom")
			}
			return attention.NewHACK(attention.DefaultHACKConfig(seed))
		},
	})
	bad, err := s.Submit(context.Background(), Request{Prompt: []int{1, 2, 3}, Seed: 13, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Submit(context.Background(), Request{Prompt: []int{1, 2, 3}, Seed: 1, MaxNewTokens: 2})
	if err != nil {
		t.Fatal(err)
	}
	if toks := collect(t, bad); len(toks) != 0 {
		t.Errorf("failed request streamed tokens: %v", toks)
	}
	if err := bad.Err(); err == nil || err.Error() != "boom" {
		t.Errorf("Err() = %v, want boom", err)
	}
	if toks := collect(t, good); len(toks) != 2 {
		t.Errorf("healthy request got %v, want 2 tokens", toks)
	}
	if snap := s.Metrics(); snap.Failed != 1 {
		t.Errorf("failed count %d, want 1", snap.Failed)
	}
}

// TestIdleWorkerTakesNextRequest pins the shared admission queue: with
// one of two workers wedged mid-prefill on a long prompt, the next
// request is taken by the idle worker and completes while the busy one
// is still wedged.
func TestIdleWorkerTakesNextRequest(t *testing.T) {
	entered, gate := make(chan struct{}), make(chan struct{})
	s := newTestServer(t, Config{
		PrefillWorkers: 2, MaxNewTokens: 2,
		Backend: func(seed int64) (attention.Backend, error) {
			if seed == 99 {
				close(entered)
				<-gate
			}
			return attention.NewHACK(attention.DefaultHACKConfig(seed))
		},
	})
	// Runs before the server-shutdown cleanup (LIFO), so a failure
	// cannot leave Shutdown waiting on the wedged worker.
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	vocab := s.Spec().Vocab

	busy, err := s.Submit(context.Background(), Request{Prompt: promptFor(0, 256, vocab), Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	<-entered // a worker has dequeued the long prompt and is wedged on it
	st, err := s.Submit(context.Background(), Request{Prompt: promptFor(1, 8, vocab), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-st.closed:
	case <-time.After(30 * time.Second):
		t.Fatal("request queued behind the busy worker while the other idled")
	}
	if toks := collect(t, st); len(toks) != 2 || st.Err() != nil {
		t.Fatalf("idle-worker request: %v, %v", toks, st.Err())
	}
	release()
	if toks := collect(t, busy); len(toks) != 2 || busy.Err() != nil {
		t.Fatalf("busy-worker request: %v, %v", toks, busy.Err())
	}
}
