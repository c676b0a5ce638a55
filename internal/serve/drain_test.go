package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/hackkv/hack/internal/attention"
)

// gatedBackend blocks backend construction until the gate closes,
// letting tests deterministically wedge the prefill worker and fill the
// admission queue behind it.
func gatedBackend(gate <-chan struct{}) BackendFactory {
	return func(seed int64) (attention.Backend, error) {
		<-gate
		return attention.NewHACK(attention.DefaultHACKConfig(seed))
	}
}

// TestBackpressureQueueFull wedges every prefill worker, fills the
// shared queue's workers × QueueCap slots, and verifies the next
// submission is load-shed with ErrQueueFull — then releases the gate
// and checks every admitted request still completes.
func TestBackpressureQueueFull(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			testBackpressureQueueFull(t, workers)
		})
	}
}

func testBackpressureQueueFull(t *testing.T, workers int) {
	const queueCap = 2
	gate := make(chan struct{})
	s := newTestServer(t, Config{
		PrefillWorkers: workers, QueueCap: queueCap, MaxBatch: 2, MaxNewTokens: 2,
		Backend: gatedBackend(gate),
	})
	// Runs before the server-shutdown cleanup (LIFO), so a test failure
	// cannot leave Shutdown waiting on the wedged workers.
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(release)
	prompt := []int{1, 2, 3, 4}
	var admitted []*Stream
	submit := func(what string) {
		st, err := s.Submit(context.Background(), Request{Prompt: prompt})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		admitted = append(admitted, st)
	}

	// One request per worker is dequeued and wedges in the backend
	// factory; poll until the queue is empty again so every queue slot
	// is genuinely free.
	for i := 0; i < workers; i++ {
		submit(fmt.Sprintf("wedge %d", i))
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Metrics().QueueDepth != 0 {
		if time.Now().After(deadline) {
			t.Fatal("workers never dequeued the wedged requests")
		}
		time.Sleep(time.Millisecond)
	}

	for i := 0; i < workers*queueCap; i++ { // fill every queue slot
		submit(fmt.Sprintf("fill %d", i))
	}
	if _, err := s.Submit(context.Background(), Request{Prompt: prompt}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	if snap := s.Metrics(); snap.RejectedFull != 1 {
		t.Errorf("rejected_queue_full %d, want 1", snap.RejectedFull)
	}

	release()
	for i, st := range admitted {
		if toks := collect(t, st); len(toks) != 2 {
			t.Errorf("admitted request %d: %d tokens, want 2", i, len(toks))
		}
		if err := st.Err(); err != nil {
			t.Errorf("admitted request %d: %v", i, err)
		}
	}
}

// TestGracefulDrain submits a burst, shuts down with a generous
// deadline, and requires every in-flight request to finish completely:
// zero dropped tokens, nil errors, and post-drain submissions rejected
// with ErrDraining.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Config{PrefillWorkers: 2, MaxBatch: 4, MaxNewTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	streams := make([]*Stream, n)
	for i := range streams {
		st, err := s.Submit(context.Background(), Request{
			Prompt: promptFor(i, 10, s.Spec().Vocab), MaxNewTokens: 4, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	if _, err := s.Submit(context.Background(), Request{Prompt: []int{1}}); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain submit: %v, want ErrDraining", err)
	}
	for i, st := range streams {
		if toks := collect(t, st); len(toks) != 4 {
			t.Errorf("request %d drained with %d tokens, want 4", i, len(toks))
		}
		if err := st.Err(); err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if snap := s.Metrics(); snap.Completed != n || !snap.Draining {
		t.Errorf("post-drain snapshot: completed %d draining %v, want %d/true",
			snap.Completed, snap.Draining, n)
	}

	// Shutdown is idempotent.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("second shutdown: %v", err)
	}
}

// TestForcedDrain gives Shutdown an immediate deadline: remaining work
// must abort promptly, every stream must still seal (with ErrDrained or
// nil — never hang), and Shutdown must report the deadline error.
func TestForcedDrain(t *testing.T) {
	s, err := New(Config{PrefillWorkers: 2, MaxBatch: 2, MaxNewTokens: 4096, QueueCap: 64})
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	streams := make([]*Stream, n)
	for i := range streams {
		st, err := s.Submit(context.Background(), Request{
			Prompt: promptFor(i, 24, s.Spec().Vocab), MaxNewTokens: 4096, Seed: int64(i)})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		streams[i] = st
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err = s.Shutdown(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced shutdown: %v, want deadline exceeded", err)
	}

	aborted := 0
	var wg sync.WaitGroup
	for i := range streams {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for range streams[i].Tokens() {
			}
		}(i)
	}
	wg.Wait() // every stream seals; a hang here fails via test timeout
	for i := range streams {
		switch err := streams[i].Err(); {
		case err == nil:
		case errors.Is(err, ErrDrained):
			aborted++
		default:
			t.Errorf("request %d: unexpected error %v", i, err)
		}
	}
	if aborted == 0 {
		t.Error("no request was aborted by the forced drain (work finished implausibly fast)")
	}
}
