package serve

import (
	"context"
	"strings"
	"testing"

	"github.com/hackkv/hack/internal/model"
)

// shipSessionInto runs prefill outside the server, round-trips every
// head's cache through the KVFrame codec, and returns the restored
// session plus the first token — the decode node's ingest path in
// miniature.
func shipSessionInto(t *testing.T, s *Server, req Request) (restored *model.Session, firstTok int) {
	t.Helper()
	sess, tok := prefilled(t, s, req.Prompt, req.Seed, nil)
	return shipOverWire(t, s, sess, req.Seed), tok
}

// TestSubmitPrefilledMatchesLocal runs the same request through the
// normal Submit path and the remote-prefill path and requires identical
// token streams — the decode half of the disaggregated byte-identity
// guarantee.
func TestSubmitPrefilledMatchesLocal(t *testing.T) {
	newServer := func() *Server {
		s, err := New(Config{PrefillWorkers: 1, MaxBatch: 4, DecodeParallelism: 1,
			MaxNewTokens: 16})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	req := Request{Prompt: []int{5, 4, 3, 2, 1, 0, 1, 2}, Seed: 99}
	ctx := context.Background()

	local := newServer()
	defer local.Shutdown(ctx)
	want := collectLocal(t, local, req)

	remote := newServer()
	defer remote.Shutdown(ctx)
	// Prefill outside the runtime, ship through the frame codec, and
	// enter via SubmitPrefilled.
	restored, firstTok := shipSessionInto(t, remote, req)
	st, err := remote.SubmitPrefilled(ctx, req, restored, firstTok)
	if err != nil {
		t.Fatal(err)
	}
	var got []int
	for tok := range st.Tokens() {
		if tok.Index != len(got) {
			t.Fatalf("token index %d at position %d", tok.Index, len(got))
		}
		got = append(got, tok.ID)
	}
	if err := st.Err(); err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("remote path streamed %d tokens, local %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("token %d diverged: remote %d, local %d\nremote %v\nlocal  %v",
				i, got[i], want[i], got, want)
		}
	}

	snap := remote.Metrics()
	if snap.RemotePrefills != 1 {
		t.Fatalf("remote prefills %d, want 1", snap.RemotePrefills)
	}
	if local.Metrics().RemotePrefills != 0 {
		t.Fatalf("local path counted a remote prefill")
	}
}

func collectLocal(t *testing.T, s *Server, req Request) []int {
	t.Helper()
	st, err := s.Submit(context.Background(), req)
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

// TestSubmitPrefilledRejections covers the validation and drain paths.
func TestSubmitPrefilledRejections(t *testing.T) {
	s, err := New(Config{PrefillWorkers: 1, MaxBatch: 2, MaxNewTokens: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	req := Request{Prompt: []int{1, 2, 3}, Seed: 1}
	restored, firstTok := shipSessionInto(t, s, req)

	if _, err := s.SubmitPrefilled(ctx, req, nil, firstTok); err == nil {
		t.Fatal("accepted a nil session")
	}
	if _, err := s.SubmitPrefilled(ctx, req, restored, -1); err == nil {
		t.Fatal("accepted an out-of-vocab first token")
	}

	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SubmitPrefilled(ctx, req, restored, firstTok); err != ErrDraining {
		t.Fatalf("draining server returned %v, want ErrDraining", err)
	}
}

// TestWritePrometheusGolden locks the exposition format: a snapshot with
// every field populated renders exactly this text.
func TestWritePrometheusGolden(t *testing.T) {
	snap := Snapshot{
		Submitted: 10, RejectedFull: 1, RejectedDraining: 2,
		Completed: 7, Canceled: 1, Failed: 1, TokensStreamed: 224,
		RemotePrefills: 3, DecodeSteps: 50, BatchNow: 4, QueueDepth: 2,
		BatchOccupancy: 3.5, KVBytesNow: 4096, KVBytesPeak: 8192,
		Draining: true,
	}
	snap.TTFT.P50, snap.TTFT.P90, snap.TTFT.P99 = 0.01, 0.02, 0.05
	snap.TBT.P50, snap.TBT.P90, snap.TBT.P99 = 0.001, 0.002, 0.003
	snap.QueueDelay.P50, snap.QueueDelay.P90, snap.QueueDelay.P99 = 0, 0.5, 1

	var b strings.Builder
	if err := snap.WritePrometheus(&b, "hackserved"); err != nil {
		t.Fatal(err)
	}
	const want = `# HELP hackserved_submitted_total Requests admitted.
# TYPE hackserved_submitted_total counter
hackserved_submitted_total 10
# HELP hackserved_rejected_queue_full_total Requests load-shed on a full admission queue.
# TYPE hackserved_rejected_queue_full_total counter
hackserved_rejected_queue_full_total 1
# HELP hackserved_rejected_draining_total Requests rejected during drain.
# TYPE hackserved_rejected_draining_total counter
hackserved_rejected_draining_total 2
# HELP hackserved_completed_total Requests finished naturally.
# TYPE hackserved_completed_total counter
hackserved_completed_total 7
# HELP hackserved_canceled_total Requests canceled or aborted by shutdown.
# TYPE hackserved_canceled_total counter
hackserved_canceled_total 1
# HELP hackserved_failed_total Requests that failed.
# TYPE hackserved_failed_total counter
hackserved_failed_total 1
# HELP hackserved_tokens_streamed_total Tokens streamed to clients.
# TYPE hackserved_tokens_streamed_total counter
hackserved_tokens_streamed_total 224
# HELP hackserved_remote_prefills_total Requests admitted with a remotely-prefilled KV cache.
# TYPE hackserved_remote_prefills_total counter
hackserved_remote_prefills_total 3
# HELP hackserved_decode_steps_total Continuous-batching decode iterations.
# TYPE hackserved_decode_steps_total counter
hackserved_decode_steps_total 50
# HELP hackserved_batch_size Decode batch size at the last step.
# TYPE hackserved_batch_size gauge
hackserved_batch_size 4
# HELP hackserved_queue_depth Requests waiting in admission queues.
# TYPE hackserved_queue_depth gauge
hackserved_queue_depth 2
# HELP hackserved_batch_occupancy Mean decode batch size over all steps.
# TYPE hackserved_batch_occupancy gauge
hackserved_batch_occupancy 3.5
# HELP hackserved_kv_bytes Resident KV-cache bytes across the decode batch.
# TYPE hackserved_kv_bytes gauge
hackserved_kv_bytes 4096
# HELP hackserved_kv_bytes_peak Peak resident KV-cache bytes.
# TYPE hackserved_kv_bytes_peak gauge
hackserved_kv_bytes_peak 8192
# HELP hackserved_ttft_seconds Time to first token.
# TYPE hackserved_ttft_seconds summary
hackserved_ttft_seconds{quantile="0.5"} 0.01
hackserved_ttft_seconds{quantile="0.9"} 0.02
hackserved_ttft_seconds{quantile="0.99"} 0.05
# HELP hackserved_tbt_seconds Mean time between tokens.
# TYPE hackserved_tbt_seconds summary
hackserved_tbt_seconds{quantile="0.5"} 0.001
hackserved_tbt_seconds{quantile="0.9"} 0.002
hackserved_tbt_seconds{quantile="0.99"} 0.003
# HELP hackserved_queue_delay_seconds Admission queue delay.
# TYPE hackserved_queue_delay_seconds summary
hackserved_queue_delay_seconds{quantile="0.5"} 0
hackserved_queue_delay_seconds{quantile="0.9"} 0.5
hackserved_queue_delay_seconds{quantile="0.99"} 1
# HELP hackserved_draining Whether shutdown has begun.
# TYPE hackserved_draining gauge
hackserved_draining 1
`
	if got := b.String(); got != want {
		t.Fatalf("prometheus format drifted:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
