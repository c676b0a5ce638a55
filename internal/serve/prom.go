package serve

import (
	"io"

	"github.com/hackkv/hack/internal/metrics"
)

// WritePrometheus renders the snapshot in Prometheus text exposition
// format (version 0.0.4) under the given metric prefix, so a fleet of
// routers and replicas is scrapeable alongside the JSON snapshot.
// Output order is fixed, making the format testable against a golden.
func (s Snapshot) WritePrometheus(w io.Writer, prefix string) error {
	if prefix == "" {
		prefix = "hackserved"
	}
	p := metrics.NewProm(w)
	pre := prefix + "_"
	p.Counter(pre+"submitted_total", "Requests admitted.", s.Submitted)
	p.Counter(pre+"rejected_queue_full_total", "Requests load-shed on a full admission queue.", s.RejectedFull)
	p.Counter(pre+"rejected_draining_total", "Requests rejected during drain.", s.RejectedDraining)
	p.Counter(pre+"completed_total", "Requests finished naturally.", s.Completed)
	p.Counter(pre+"canceled_total", "Requests canceled or aborted by shutdown.", s.Canceled)
	p.Counter(pre+"failed_total", "Requests that failed.", s.Failed)
	p.Counter(pre+"tokens_streamed_total", "Tokens streamed to clients.", s.TokensStreamed)
	p.Counter(pre+"remote_prefills_total", "Requests admitted with a remotely-prefilled KV cache.", s.RemotePrefills)
	p.Counter(pre+"decode_steps_total", "Continuous-batching decode iterations.", s.DecodeSteps)
	p.Gauge(pre+"batch_size", "Decode batch size at the last step.", int64(s.BatchNow))
	p.Gauge(pre+"queue_depth", "Requests waiting in admission queues.", int64(s.QueueDepth))
	p.GaugeFloat(pre+"batch_occupancy", "Mean decode batch size over all steps.", s.BatchOccupancy)
	p.Gauge(pre+"kv_bytes", "Resident KV-cache bytes across the decode batch.", s.KVBytesNow)
	p.Gauge(pre+"kv_bytes_peak", "Peak resident KV-cache bytes.", s.KVBytesPeak)
	if pc := s.PrefixCache; pc != nil {
		p.Counter(pre+"prefix_hits_total", "Prefix-cache lookups matching at least one block.", pc.Hits)
		p.Counter(pre+"prefix_misses_total", "Prefix-cache lookups matching nothing.", pc.Misses)
		p.Counter(pre+"prefix_inserts_total", "Prefix-cache blocks inserted.", pc.Inserts)
		p.Counter(pre+"prefix_insert_rejected_total", "Prefix-cache blocks rejected for lack of budget.", pc.InsertRejected)
		p.Counter(pre+"prefix_evictions_total", "Prefix-cache blocks evicted.", pc.Evictions)
		p.Counter(pre+"prefix_tokens_reused_total", "Prompt tokens whose prefill was skipped.", pc.TokensReused)
		p.Counter(pre+"prefix_bytes_saved_total", "KV bytes restored instead of recomputed.", pc.BytesSaved)
		p.Counter(pre+"prefix_errors_total", "Prefix-tier failures absorbed by cold fallback.", pc.Errors)
		p.Gauge(pre+"prefix_nodes", "Resident prefix-cache blocks.", int64(pc.Nodes))
		p.Gauge(pre+"prefix_bytes", "Resident prefix-cache bytes.", pc.BytesUsed)
		p.Gauge(pre+"prefix_bytes_budget", "Prefix-cache byte budget.", pc.BytesBudget)
	}
	p.Summary(pre+"ttft_seconds", "Time to first token.", s.TTFT)
	p.Summary(pre+"tbt_seconds", "Mean time between tokens.", s.TBT)
	p.Summary(pre+"queue_delay_seconds", "Admission queue delay.", s.QueueDelay)
	draining := int64(0)
	if s.Draining {
		draining = 1
	}
	p.Gauge(pre+"draining", "Whether shutdown has begun.", draining)
	return p.Err()
}
