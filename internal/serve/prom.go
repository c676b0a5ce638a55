package serve

import (
	"fmt"
	"io"
	"strconv"

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
	var err error
	emit := func(f string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, f, args...)
		}
	}
	num := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	counter := func(name, help string, v int64) {
		emit("# HELP %s_%s %s\n# TYPE %s_%s counter\n%s_%s %d\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	gauge := func(name, help string, v string) {
		emit("# HELP %s_%s %s\n# TYPE %s_%s gauge\n%s_%s %s\n",
			prefix, name, help, prefix, name, prefix, name, v)
	}
	summary := func(name, help string, ps metrics.PercentileSummary) {
		emit("# HELP %s_%s %s\n# TYPE %s_%s summary\n", prefix, name, help, prefix, name)
		emit("%s_%s{quantile=\"0.5\"} %s\n", prefix, name, num(ps.P50))
		emit("%s_%s{quantile=\"0.9\"} %s\n", prefix, name, num(ps.P90))
		emit("%s_%s{quantile=\"0.99\"} %s\n", prefix, name, num(ps.P99))
	}

	counter("submitted_total", "Requests admitted.", s.Submitted)
	counter("rejected_queue_full_total", "Requests load-shed on a full admission queue.", s.RejectedFull)
	counter("rejected_draining_total", "Requests rejected during drain.", s.RejectedDraining)
	counter("completed_total", "Requests finished naturally.", s.Completed)
	counter("canceled_total", "Requests canceled or aborted by shutdown.", s.Canceled)
	counter("failed_total", "Requests that failed.", s.Failed)
	counter("tokens_streamed_total", "Tokens streamed to clients.", s.TokensStreamed)
	counter("remote_prefills_total", "Requests admitted with a remotely-prefilled KV cache.", s.RemotePrefills)
	counter("decode_steps_total", "Continuous-batching decode iterations.", s.DecodeSteps)
	gauge("batch_size", "Decode batch size at the last step.", strconv.Itoa(s.BatchNow))
	gauge("queue_depth", "Requests waiting in admission queues.", strconv.Itoa(s.QueueDepth))
	gauge("batch_occupancy", "Mean decode batch size over all steps.", num(s.BatchOccupancy))
	gauge("kv_bytes", "Resident KV-cache bytes across the decode batch.", strconv.FormatInt(s.KVBytesNow, 10))
	gauge("kv_bytes_peak", "Peak resident KV-cache bytes.", strconv.FormatInt(s.KVBytesPeak, 10))
	if pc := s.PrefixCache; pc != nil {
		counter("prefix_hits_total", "Prefix-cache lookups matching at least one block.", pc.Hits)
		counter("prefix_misses_total", "Prefix-cache lookups matching nothing.", pc.Misses)
		counter("prefix_inserts_total", "Prefix-cache blocks inserted.", pc.Inserts)
		counter("prefix_insert_rejected_total", "Prefix-cache blocks rejected for lack of budget.", pc.InsertRejected)
		counter("prefix_evictions_total", "Prefix-cache blocks evicted.", pc.Evictions)
		counter("prefix_tokens_reused_total", "Prompt tokens whose prefill was skipped.", pc.TokensReused)
		counter("prefix_bytes_saved_total", "KV bytes restored instead of recomputed.", pc.BytesSaved)
		counter("prefix_errors_total", "Prefix-tier failures absorbed by cold fallback.", pc.Errors)
		gauge("prefix_nodes", "Resident prefix-cache blocks.", strconv.Itoa(pc.Nodes))
		gauge("prefix_bytes", "Resident prefix-cache bytes.", strconv.FormatInt(pc.BytesUsed, 10))
		gauge("prefix_bytes_budget", "Prefix-cache byte budget.", strconv.FormatInt(pc.BytesBudget, 10))
	}
	summary("ttft_seconds", "Time to first token.", s.TTFT)
	summary("tbt_seconds", "Mean time between tokens.", s.TBT)
	summary("queue_delay_seconds", "Admission queue delay.", s.QueueDelay)
	draining := "0"
	if s.Draining {
		draining = "1"
	}
	gauge("draining", "Whether shutdown has begun.", draining)
	return err
}
