package hack

import (
	"context"
	"fmt"

	"github.com/hackkv/hack/internal/serve"
)

// Live-serving types re-exported from the internal runtime. Where
// Engine.Run prices a workload with the analytic cost model, a listening
// Engine actually executes it: concurrent requests run through the real
// numeric transformer and the homomorphic HACK kernels under continuous
// batching.
type (
	// GenRequest is one live generation job: a token-ID prompt, an
	// optional per-request token budget, stop token, and quantizer seed.
	GenRequest = serve.Request
	// GenToken is one streamed generation event (sequence index + token
	// ID).
	GenToken = serve.Token
	// GenStream delivers one request's tokens in order; Err() reports
	// how the request ended once the channel closes.
	GenStream = serve.Stream
	// ServeSnapshot is a point-in-time view of the live runtime's
	// serving metrics: request accounting, queue depth, batch occupancy,
	// resident KV bytes, and nearest-rank TTFT/TBT/queue-delay
	// percentiles.
	ServeSnapshot = serve.Snapshot
)

// Live-serving sentinel errors.
var (
	// ErrQueueFull load-sheds a submission that finds the admission
	// queue at capacity.
	ErrQueueFull = serve.ErrQueueFull
	// ErrDraining rejects submissions once shutdown has begun.
	ErrDraining = serve.ErrDraining
)

// ServeConfig sizes the live serving runtime a listening Engine starts:
// Listen's, and the one inside every prefill and decode node of
// ListenDisagg. The zero value of every field selects a default.
type ServeConfig struct {
	// Model is the numeric architecture to actually execute. The zero
	// value serves the Toy instance (the accuracy experiments' model):
	// catalog-scale specs are priced by Run/Serve but are not
	// numerically servable on a CPU.
	Model ModelSpec
	// ModelSeed seeds the deterministic synthetic weights.
	ModelSeed int64
	// PrefillWorkers is the concurrent prefill fan-out (default 2);
	// 1 selects the deterministic single-worker mode.
	PrefillWorkers int
	// MaxBatch caps the continuous decode batch (default 8).
	MaxBatch int
	// QueueCap is the admission slots per prefill worker: the one
	// shared queue holds PrefillWorkers × QueueCap requests, and a full
	// queue load-sheds with ErrQueueFull (default 64).
	QueueCap int
	// MaxNewTokens caps tokens generated per request (default 32).
	MaxNewTokens int
	// DecodeParallelism is the goroutine fan-out when stepping the
	// decode batch; outputs are identical at every setting (default:
	// size to the batch; 1 steps serially).
	DecodeParallelism int
}

// WithServeConfig sizes the live runtime started by Engine.Listen or
// Engine.ListenDisagg.
func WithServeConfig(sc ServeConfig) Option {
	return func(e *Engine) error {
		if sc.PrefillWorkers < 0 || sc.MaxBatch < 0 || sc.QueueCap < 0 ||
			sc.MaxNewTokens < 0 || sc.DecodeParallelism < 0 {
			return fmt.Errorf("serve config fields must be >= 0 (%+v)", sc)
		}
		e.serveCfg = sc
		return nil
	}
}

// WithPrefixCache enables the shared-prefix KV cache tier under the
// given byte budget: quantized KV pages of Π tokens from completed
// prefills are indexed by prompt prefix, and a later request sharing a
// cached prefix skips prefill over the matched span while streaming
// tokens byte-identical to its cold path — and to a deployment without
// the tier. The tier runs where prefill runs: Listen and the prefill
// role of ListenDisagg host it, the decode and router roles refuse it.
// It requires a homomorphic engine method with requantization
// elimination (Listen reports an error otherwise), and composes with
// WithServeConfig regardless of option order.
func WithPrefixCache(budgetBytes int64) Option {
	return func(e *Engine) error {
		if budgetBytes <= 0 {
			return fmt.Errorf("prefix cache budget %d must be positive", budgetBytes)
		}
		e.prefixBytes = budgetBytes
		return nil
	}
}

// Server is the live serving runtime started by Engine.Listen: a
// continuous-batching scheduler driving the real quantized kernels,
// fed by one bounded admission queue that every prefill worker pulls
// from in arrival order.
type Server struct {
	rt *serve.Server
}

// Listen starts the live serving runtime for this deployment: requests
// submitted to the returned Server wait in one FIFO admission queue,
// are taken by the next free prefill worker, prefilled through the real
// numeric transformer, and decoded by a continuous-batching loop running the
// engine method's kernels (homomorphic HACK kernels for HACK-family
// methods; see WithServeConfig for sizing). Cancelling ctx force-drains
// the server in the background; call Shutdown for a graceful drain.
func (e *Engine) Listen(ctx context.Context) (*Server, error) {
	rt, err := serve.New(e.runtimeConfig())
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	if ctx != nil && ctx.Done() != nil {
		go func() {
			select {
			case <-rt.Done():
				// Already drained via Shutdown; nothing to watch.
			case <-ctx.Done():
				expired, cancel := context.WithCancel(context.Background())
				cancel() // already-expired context: force the drain immediately
				_ = rt.Shutdown(expired)
			}
		}()
	}
	return &Server{rt: rt}, nil
}

// runtimeConfig is the serving runtime every role that hosts one
// builds: the local server and both disaggregated node roles.
func (e *Engine) runtimeConfig() serve.Config {
	sc := e.serveCfg
	return serve.Config{
		Spec:              sc.Model,
		ModelSeed:         sc.ModelSeed,
		Backend:           serve.BackendForMethod(e.method, e.kernelPar),
		PrefillWorkers:    sc.PrefillWorkers,
		MaxBatch:          sc.MaxBatch,
		QueueCap:          sc.QueueCap,
		MaxNewTokens:      sc.MaxNewTokens,
		DecodeParallelism: sc.DecodeParallelism,
		PrefixCacheBytes:  e.prefixBytes,
	}
}

// Submit admits one generation request and returns its token stream.
// A full admission queue load-sheds with ErrQueueFull; a draining server rejects
// with ErrDraining; cancelling ctx stops the request's stream.
func (s *Server) Submit(ctx context.Context, req GenRequest) (*GenStream, error) {
	st, err := s.rt.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	return st, nil
}

// Generate is the blocking convenience wrapper: it submits the request
// and returns the full generated token sequence.
func (s *Server) Generate(ctx context.Context, req GenRequest) ([]int, error) {
	st, err := s.Submit(ctx, req)
	if err != nil {
		return nil, err
	}
	var out []int
	for tok := range st.Tokens() {
		out = append(out, tok.ID)
	}
	if err := st.Err(); err != nil {
		return out, err
	}
	return out, nil
}

// Metrics returns the live serving snapshot.
func (s *Server) Metrics() ServeSnapshot { return s.rt.Metrics() }

// Draining reports whether shutdown has begun.
func (s *Server) Draining() bool { return s.rt.Draining() }

// Model returns the numeric architecture actually being served.
func (s *Server) Model() ModelSpec { return s.rt.Spec() }

// Shutdown gracefully drains the server: submissions are rejected,
// in-flight requests finish, then Shutdown returns. If ctx expires
// first, remaining requests abort and the context error is returned.
func (s *Server) Shutdown(ctx context.Context) error { return s.rt.Shutdown(ctx) }
