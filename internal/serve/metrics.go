package serve

import (
	"sync"
	"sync/atomic"

	"github.com/hackkv/hack/internal/metrics"
)

// recorder aggregates the live serving metrics: lock-free counters on
// the hot paths, and mutex-guarded bounded reservoirs for the latency
// percentiles.
type recorder struct {
	submitted      atomic.Int64
	rejectedFull   atomic.Int64
	rejectedDrain  atomic.Int64
	completed      atomic.Int64
	canceled       atomic.Int64
	failed         atomic.Int64
	tokens         atomic.Int64
	remotePrefills atomic.Int64
	steps          atomic.Int64
	batchSizeSum   atomic.Int64

	batchNow atomic.Int64
	kvNow    atomic.Int64
	kvPeak   atomic.Int64

	// prefixErrors counts shared-prefix tier failures the server
	// absorbed by falling back to a cold prefill.
	prefixErrors atomic.Int64

	mu      sync.Mutex
	ttfts   metrics.Ring
	tbts    metrics.Ring
	queueDs metrics.Ring
}

func (r *recorder) ttft(s float64) {
	r.mu.Lock()
	r.ttfts.Add(s)
	r.mu.Unlock()
}

func (r *recorder) tbt(s float64) {
	r.mu.Lock()
	r.tbts.Add(s)
	r.mu.Unlock()
}

func (r *recorder) queueDelay(s float64) {
	r.mu.Lock()
	r.queueDs.Add(s)
	r.mu.Unlock()
}

// kv records the batch's resident KV-cache bytes after a decode step,
// tracking the peak. Only the batcher writes, so the read-then-store
// max needs no CAS loop.
func (r *recorder) kv(bytes int64) {
	r.kvNow.Store(bytes)
	if bytes > r.kvPeak.Load() {
		r.kvPeak.Store(bytes)
	}
}

// step records one decode iteration's batch size.
func (r *recorder) step(batch int) {
	r.steps.Add(1)
	r.batchSizeSum.Add(int64(batch))
	r.batchNow.Store(int64(batch))
}

// Snapshot is one point-in-time view of the runtime's serving metrics.
// Percentiles are nearest-rank (the simulator's definition) over the
// most recent completions.
type Snapshot struct {
	// Request accounting.
	Submitted        int64 `json:"submitted"`
	RejectedFull     int64 `json:"rejected_queue_full"`
	RejectedDraining int64 `json:"rejected_draining"`
	Completed        int64 `json:"completed"`
	Canceled         int64 `json:"canceled"`
	Failed           int64 `json:"failed"`
	TokensStreamed   int64 `json:"tokens_streamed"`
	// RemotePrefills counts requests admitted via SubmitPrefilled — the
	// disaggregated path where prefill ran on another instance.
	RemotePrefills int64 `json:"remote_prefills"`

	// Continuous-batching state.
	DecodeSteps    int64   `json:"decode_steps"`
	BatchNow       int     `json:"batch_now"`
	QueueDepth     int     `json:"queue_depth"`
	BatchOccupancy float64 `json:"batch_occupancy"`
	KVBytesNow     int64   `json:"kv_bytes_now"`
	KVBytesPeak    int64   `json:"kv_bytes_peak"`

	// PrefixCache reports the shared-prefix KV tier, nil when the tier
	// is disabled (so existing JSON consumers see no new field).
	PrefixCache *PrefixCacheStats `json:"prefix_cache,omitempty"`

	// Latency percentiles, in seconds.
	TTFT       metrics.PercentileSummary `json:"ttft_s"`
	TBT        metrics.PercentileSummary `json:"tbt_s"`
	QueueDelay metrics.PercentileSummary `json:"queue_delay_s"`

	// Draining reports whether shutdown has begun.
	Draining bool `json:"draining"`
}

// Metrics returns the current serving snapshot.
func (s *Server) Metrics() Snapshot {
	r := &s.rec
	out := Snapshot{
		Submitted:        r.submitted.Load(),
		RejectedFull:     r.rejectedFull.Load(),
		RejectedDraining: r.rejectedDrain.Load(),
		Completed:        r.completed.Load(),
		Canceled:         r.canceled.Load(),
		Failed:           r.failed.Load(),
		TokensStreamed:   r.tokens.Load(),
		RemotePrefills:   r.remotePrefills.Load(),
		DecodeSteps:      r.steps.Load(),
		BatchNow:         int(r.batchNow.Load()),
		QueueDepth:       len(s.queue),
		KVBytesNow:       r.kvNow.Load(),
		KVBytesPeak:      r.kvPeak.Load(),
		Draining:         s.Draining(),
	}
	if out.DecodeSteps > 0 {
		out.BatchOccupancy = float64(r.batchSizeSum.Load()) / float64(out.DecodeSteps)
	}
	if s.prefix != nil {
		st, err := s.prefix.backend.Stats()
		if err != nil {
			r.prefixErrors.Add(1)
		}
		st.Errors = r.prefixErrors.Load()
		out.PrefixCache = &st
	}
	r.mu.Lock()
	ttfts, tbts, qds := r.ttfts.Snapshot(), r.tbts.Snapshot(), r.queueDs.Snapshot()
	r.mu.Unlock()
	out.TTFT = metrics.Summarize(ttfts)
	out.TBT = metrics.Summarize(tbts)
	out.QueueDelay = metrics.Summarize(qds)
	return out
}
