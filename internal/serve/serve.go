// Package serve is the live serving runtime: where package sim prices
// requests with the analytic cost model, serve actually runs them —
// concurrent requests are admitted into one bounded FIFO queue that
// every prefill worker pulls from, prefilled through the real numeric
// transformer, and then decoded by a continuous-batching loop that
// re-forms the decode batch every step over the homomorphic HACK
// kernels (or any other attention backend). Placing requests across
// separate prefill instances is the simulator's and the disaggregated
// router's concern, not this runtime's.
//
// The runtime is the execution counterpart of the FlowKV/KVServe-style
// serving loops the simulator models: per-request streamed token
// channels with context cancellation, load shedding when the admission
// queue fills, graceful drain on shutdown, and a live metrics snapshot
// (TTFT/TBT percentiles, queue depth, batch occupancy) built on the
// same nearest-rank percentile code as the simulator summaries.
//
// Token streams are deterministic per request: each request's attention
// backend derives all quantizer randomness from the request seed, so a
// request's tokens do not depend on which other requests share its
// batch. With a single prefill worker and serial decode stepping the
// whole runtime is byte-identical across reruns.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/model"
)

// BackendFactory builds the per-request attention backend. The seed is
// the request's quantizer seed, so repeated submissions with the same
// seed generate identical tokens regardless of batching.
type BackendFactory func(seed int64) (attention.Backend, error)

// Config parameterizes a Server. The zero value of every field selects
// a sensible default (see New).
type Config struct {
	// Spec is the numeric model architecture. The zero Spec selects
	// model.Toy() — the multi-layer, multi-head instance the accuracy
	// experiments use. Catalog-scale specs (billions of parameters)
	// are not numerically servable on a CPU: passing one attempts to
	// materialize its synthetic weights. Serve Toy-sized specs here and
	// let Run/Serve price the catalog deployments.
	Spec model.Spec
	// ModelSeed seeds the transformer's deterministic synthetic weights.
	ModelSeed int64
	// Backend builds each request's attention state; nil selects the
	// paper's shipping HACK configuration (Π=64, SE+RQE, stochastic
	// rounding).
	Backend BackendFactory
	// PrefillWorkers is the number of concurrent prefill goroutines,
	// all pulling from one shared admission queue in arrival order.
	// Default 2; 1 gives the deterministic single-worker mode.
	PrefillWorkers int
	// MaxBatch caps the decode batch; the batcher re-forms the batch up
	// to this size every step. Default 8.
	MaxBatch int
	// QueueCap is the admission slots per prefill worker: the shared
	// queue holds PrefillWorkers × QueueCap waiting requests, and a
	// Submit that finds it full is load-shed with ErrQueueFull.
	// Default 64.
	QueueCap int
	// MaxNewTokens caps tokens generated per request (requests may ask
	// for fewer). Default 32.
	MaxNewTokens int
	// DecodeParallelism is the goroutine fan-out when stepping the
	// decode batch (sessions are stepped independently; outputs are
	// identical at every setting). 0 sizes to the batch, 1 steps
	// serially — the deterministic single-worker mode.
	DecodeParallelism int

	// PrefixCacheBytes > 0 enables the in-process shared-prefix KV tier
	// with that byte budget: requests whose prompts share a block-aligned
	// prefix (within one quantizer seed) reuse the cached quantized pages
	// and skip prefill over the matched span, streaming tokens that are
	// byte-identical to a cold prefill of the same (prompt, seed) — and
	// so to a server without the tier. The attention backend must export
	// pages (attention.PrefixBackend: HACK with RQE). A page is one
	// partition of Π tokens. Requests never fail on the tier: a tier
	// error is counted and the request takes a cold prefill.
	PrefixCacheBytes int64
}

// Request is one generation job.
type Request struct {
	// Prompt is the token-ID prompt; every ID must be in [0, vocab).
	Prompt []int
	// MaxNewTokens caps this request's generated tokens; 0 or anything
	// above the server's MaxNewTokens uses the server cap.
	MaxNewTokens int
	// EOS stops generation after the end-of-sequence token is emitted.
	// 0 (the zero value) and negative values disable the check: the
	// synthetic serving vocabulary reserves no stop token by default.
	EOS int
	// Seed seeds the request's attention-backend quantizers; the same
	// (prompt, seed) pair always streams identical tokens.
	Seed int64
}

// Token is one streamed generation event.
type Token struct {
	// Index is the token's 0-based position in the generated sequence.
	Index int `json:"index"`
	// ID is the generated token ID.
	ID int `json:"id"`
}

// Stream delivers one request's tokens. Tokens() yields them in order
// and is closed when the request finishes; Err() reports why (nil for a
// natural finish, the context error for a cancelled request, ErrDrained
// for a request aborted by a forced shutdown).
type Stream struct {
	tokens chan Token
	closed chan struct{}
	err    error
	once   sync.Once
}

// Tokens returns the ordered token channel. It is buffered to the
// request's token budget, so the runtime never blocks on (and never
// drops tokens for) a slow consumer.
func (s *Stream) Tokens() <-chan Token { return s.tokens }

// Err reports the request's terminal error. It is valid once Tokens()
// has been closed (and blocks until then).
func (s *Stream) Err() error {
	<-s.closed
	return s.err
}

// finish seals the stream exactly once.
func (s *Stream) finish(err error) {
	s.once.Do(func() {
		s.err = err
		close(s.tokens)
		close(s.closed)
	})
}

var (
	// ErrQueueFull is the load-shedding signal: the admission queue is
	// at capacity and the request was rejected, not queued.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrDraining rejects submissions after Shutdown has begun.
	ErrDraining = errors.New("serve: server draining")
	// ErrDrained aborts in-flight requests when a Shutdown deadline
	// expires before they finish.
	ErrDrained = errors.New("serve: aborted by shutdown")
)

// active is one admitted request's runtime state as it moves from the
// admission queue through prefill into the decode batch.
type active struct {
	req    Request
	ctx    context.Context
	stream *Stream
	sess   *model.Session
	maxNew int
	last   int // last generated token (decode input)
	n      int // tokens emitted so far
	done   bool

	submitted time.Time
	started   time.Time // prefill start (queue delay = started - submitted)
	first     time.Time // first token emission
	lastTok   time.Time
	err       error // terminal error recorded by the step that finished it
}

// emit delivers one token to the stream; the channel is pre-sized to
// maxNew so the send cannot block or drop.
func (a *active) emit(id int, rec *recorder) {
	now := time.Now()
	if a.n == 0 {
		a.first = now
	}
	a.lastTok = now
	a.stream.tokens <- Token{Index: a.n, ID: id}
	a.n++
	a.last = id
	rec.tokens.Add(1)
}

// Server is the concurrent serving runtime. Build one with New; it is
// immediately accepting. Shut it down with Shutdown.
type Server struct {
	cfg     Config
	m       *model.Transformer
	backend BackendFactory

	mu       sync.Mutex // guards draining and queue sends
	draining bool

	queue chan *active // admission queue, shared by every prefill worker
	admit chan *active // prefill → decode handoff

	forceCtx    context.Context // cancelled when a drain deadline expires
	forceCancel context.CancelFunc
	done        chan struct{} // closed when the runtime has fully drained

	// prefix is the shared-prefix KV tier, nil when disabled.
	prefix *prefixTier

	prefillWG sync.WaitGroup
	batchWG   sync.WaitGroup
	// remoteWG tracks SubmitPrefilled calls that passed the draining
	// check but have not yet entered the admit channel, so Shutdown
	// cannot close the channel underneath them.
	remoteWG sync.WaitGroup

	rec recorder
}

// New validates the configuration, applies defaults, builds the model,
// and starts the prefill workers and the decode batcher. The returned
// Server accepts submissions immediately.
func New(cfg Config) (*Server, error) {
	if cfg.Spec.Layers == 0 && cfg.Spec.Hidden == 0 {
		cfg.Spec = model.Toy()
	}
	if cfg.PrefillWorkers == 0 {
		cfg.PrefillWorkers = 2
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.QueueCap == 0 {
		cfg.QueueCap = 64
	}
	if cfg.MaxNewTokens == 0 {
		cfg.MaxNewTokens = 32
	}
	if cfg.PrefillWorkers < 0 || cfg.MaxBatch < 0 || cfg.QueueCap < 0 ||
		cfg.MaxNewTokens < 0 || cfg.DecodeParallelism < 0 {
		return nil, fmt.Errorf("serve: negative config (workers %d batch %d queue %d maxNew %d par %d)",
			cfg.PrefillWorkers, cfg.MaxBatch, cfg.QueueCap, cfg.MaxNewTokens, cfg.DecodeParallelism)
	}
	if cfg.PrefixCacheBytes < 0 {
		return nil, fmt.Errorf("serve: negative prefix cache budget %d", cfg.PrefixCacheBytes)
	}
	if cfg.Backend == nil {
		cfg.Backend = func(seed int64) (attention.Backend, error) {
			return attention.NewHACK(attention.DefaultHACKConfig(seed))
		}
	}
	var prefix *prefixTier
	if cfg.PrefixCacheBytes > 0 {
		var err error
		if prefix, err = newPrefixTier(cfg); err != nil {
			return nil, err
		}
	}
	m, err := model.NewTransformer(cfg.Spec, cfg.ModelSeed)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	s := &Server{
		cfg:     cfg,
		m:       m,
		backend: cfg.Backend,
		prefix:  prefix,
		queue:   make(chan *active, cfg.PrefillWorkers*cfg.QueueCap),
		admit:   make(chan *active, cfg.MaxBatch),
		done:    make(chan struct{}),
	}
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	s.prefillWG.Add(cfg.PrefillWorkers)
	for i := 0; i < cfg.PrefillWorkers; i++ {
		go s.runPrefill()
	}
	s.batchWG.Add(1)
	go s.runBatcher()
	return s, nil
}

// Spec returns the served numeric architecture.
func (s *Server) Spec() model.Spec { return s.cfg.Spec }

// Model returns the served transformer. Disaggregated nodes prefill
// against it and restore shipped sessions onto it; both sides hold the
// same (spec, seed) weights by construction.
func (s *Server) Model() *model.Transformer { return s.m }

// BackendFor builds the per-request attention backend for a quantizer
// seed — the same factory the prefill workers use, exposed so a decode
// node can restore heads under an identical configuration.
func (s *Server) BackendFor(seed int64) (attention.Backend, error) { return s.backend(seed) }

// Done returns a channel closed once the runtime has fully drained:
// the queue empty, every stream sealed, every goroutine exited.
func (s *Server) Done() <-chan struct{} { return s.done }

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Submit validates and admits one request, returning its token stream.
// A full admission queue load-sheds with ErrQueueFull; a draining server
// rejects with ErrDraining. The request's tokens stop flowing when ctx
// is cancelled.
func (s *Server) Submit(ctx context.Context, req Request) (*Stream, error) {
	a, err := s.enqueue(ctx, req)
	if err != nil {
		return nil, err
	}
	return a.stream, nil
}

// Prefill runs only the prefill half of req on the prefill workers —
// the prefill role of a disaggregated deployment. It shares Submit's
// validation, admission queue and prefix tier, with a
// budget of one token, and returns the prefilled session and its first
// token for the caller to ship.
func (s *Server) Prefill(ctx context.Context, req Request) (*model.Session, int, error) {
	req.MaxNewTokens = 1
	a, err := s.enqueue(ctx, req)
	if err != nil {
		return nil, 0, err
	}
	// prefillOne seals a one-token stream right after the prefill
	// (never reaching the decode batcher), having set a.sess first; a
	// failed prefill seals it with no token and an error.
	tok := <-a.stream.tokens
	if err := a.stream.Err(); err != nil {
		return nil, 0, err
	}
	return a.sess, tok.ID, nil
}

// enqueue validates req and places it on the admission queue.
func (s *Server) enqueue(ctx context.Context, req Request) (*active, error) {
	if len(req.Prompt) == 0 {
		return nil, fmt.Errorf("serve: empty prompt")
	}
	for i, tok := range req.Prompt {
		if tok < 0 || tok >= s.cfg.Spec.Vocab {
			return nil, fmt.Errorf("serve: prompt token %d at position %d outside vocab [0, %d)",
				tok, i, s.cfg.Spec.Vocab)
		}
	}
	if req.MaxNewTokens < 0 {
		return nil, fmt.Errorf("serve: max new tokens %d must be >= 0", req.MaxNewTokens)
	}
	maxNew := req.MaxNewTokens
	if maxNew == 0 || maxNew > s.cfg.MaxNewTokens {
		maxNew = s.cfg.MaxNewTokens
	}
	a := &active{
		req:       req,
		ctx:       ctx,
		maxNew:    maxNew,
		stream:    &Stream{tokens: make(chan Token, maxNew), closed: make(chan struct{})},
		submitted: time.Now(),
	}

	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		s.rec.rejectedDrain.Add(1)
		return nil, ErrDraining
	}
	select {
	case s.queue <- a:
		s.mu.Unlock()
	default:
		s.mu.Unlock()
		s.rec.rejectedFull.Add(1)
		return nil, ErrQueueFull
	}
	s.rec.submitted.Add(1)
	return a, nil
}

// Shutdown gracefully drains the server: new submissions are rejected,
// queued and in-flight requests run to completion, and Shutdown returns
// once every stream has been sealed. If ctx expires first, remaining
// requests are aborted (their streams finish with ErrDrained) and
// Shutdown returns the context error. Shutdown is idempotent; later
// calls wait for the same drain.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	if !already {
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.prefillWG.Wait()
		s.remoteWG.Wait()
		if !already {
			close(s.admit)
		}
		s.batchWG.Wait()
		if !already && s.prefix != nil {
			_ = s.prefix.backend.Close()
		}
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.forceCancel()
		<-done
		return ctx.Err()
	}
}

// forced reports whether the drain deadline has expired.
func (s *Server) forced() bool {
	select {
	case <-s.forceCtx.Done():
		return true
	default:
		return false
	}
}
