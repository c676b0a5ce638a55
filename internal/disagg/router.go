package disagg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/metrics"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
)

// RouterConfig parameterizes a router.
type RouterConfig struct {
	// Prefills and Decodes are the initial peer wire addresses. At least
	// one prefill is required; decode replicas may also be added and
	// removed later (AddReplica/RemoveReplica).
	Prefills []string
	Decodes  []string
	// NodeID names the router in handshakes (default "router").
	NodeID string
	// HTTPAddr serves the router's own /healthz and /metrics (the
	// DisaggReport); empty disables it.
	HTTPAddr string
	// Spec/ModelSeed/MethodName describe the deployment; they must match
	// every peer, which the handshake enforces. The zero Spec selects
	// model.Toy().
	Spec       model.Spec
	ModelSeed  int64
	MethodName string
	// DialTimeout bounds each dial+handshake (default 2s).
	DialTimeout time.Duration
	// FrameTimeout bounds each framed read/write inside a KV transfer or
	// token stream (default 10s), so a half-open peer surfaces as a
	// retryable timeout instead of wedging the request forever. Negative
	// disables the deadline.
	FrameTimeout time.Duration
	// HealthInterval is the /healthz polling period (default 500ms).
	HealthInterval time.Duration
	// Decode retries run under a wall-clock RetryBudget (default 5s)
	// with jittered exponential backoff starting at RetryBackoff
	// (default 50ms, doubling, jittered by ±RetryJitter/2 — default
	// 0.2). RetryMax additionally caps the retry count: 0 selects the
	// default cap (2, the pre-budget behavior), negative means
	// budget-only (no count cap).
	RetryMax     int
	RetryBackoff time.Duration
	RetryBudget  time.Duration
	RetryJitter  float64
	// Each decode replica sits behind a circuit breaker that opens after
	// BreakerThreshold consecutive transport failures (default 3) and
	// half-opens after BreakerCooldown (default 500ms), admitting one
	// probe. An open breaker removes the replica from placement even
	// while /healthz still answers — the half-open-link case health
	// polling cannot see.
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// Dialer replaces the network dialer on every link the router opens
	// (nil means the real network). Chaos, if set, is the fault injector
	// whose stats join the Report and /metrics; when Dialer is nil it
	// also provides the dialer, so every router link crosses the
	// injector's fault plans.
	Dialer chaos.Dialer
	Chaos  *chaos.Injector
}

// Request is one generation job submitted to the router.
type Request struct {
	Prompt       []int
	MaxNewTokens int
	EOS          int
	Seed         int64
}

// Stream delivers one routed request's tokens, mirroring serve.Stream:
// Tokens() yields them in order and closes when the request finishes;
// Err() reports why (nil, ErrNoPrefill, ErrNoReplicas, ErrTransferFailed,
// or the context error).
type Stream struct {
	tokens chan TokenMsg
	closed chan struct{}
	err    error
	once   sync.Once
}

// Tokens returns the ordered token channel. It is buffered to the
// request's token budget, so a slow consumer never stalls a failover.
func (s *Stream) Tokens() <-chan TokenMsg { return s.tokens }

// Err reports the request's terminal error; it blocks until the stream
// has been sealed.
func (s *Stream) Err() error {
	<-s.closed
	return s.err
}

func (s *Stream) finish(err error) {
	s.once.Do(func() {
		s.err = err
		close(s.tokens)
		close(s.closed)
	})
}

// replica tracks one decode peer's health and load. The load signals
// mirror the simulator's LoadAware scoring: pending KV bytes in flight
// to the replica plus its in-flight request count.
type replica struct {
	addr     string
	httpAddr atomic.Value // string
	healthy  atomic.Bool
	draining atomic.Bool
	breaker  *chaos.Breaker

	inflight  atomic.Int64
	pendingKV atomic.Int64
	requests  atomic.Int64
}

func (rep *replica) httpAddrStr() string {
	if v, ok := rep.httpAddr.Load().(string); ok {
		return v
	}
	return ""
}

// ReplicaStatus is one decode replica's row in a Report.
type ReplicaStatus struct {
	Addr           string              `json:"addr"`
	Healthy        bool                `json:"healthy"`
	Draining       bool                `json:"draining"`
	Inflight       int64               `json:"inflight"`
	PendingKVBytes int64               `json:"pending_kv_bytes"`
	Requests       int64               `json:"requests"`
	Breaker        chaos.BreakerStatus `json:"breaker"`
}

// Report is the router's live view of the disaggregated deployment.
type Report struct {
	Requests  int64 `json:"requests"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Retries   int64 `json:"retries"`
	Failovers int64 `json:"failovers"`
	// LinkKVBytes counts framed KV bytes per link, keyed
	// "prefill→router <addr>" and "router→decode <addr>".
	LinkKVBytes map[string]int64 `json:"link_kv_bytes"`
	// TransferSeconds samples each KV leg separately: the prefill pull
	// leg includes the prefill compute, and the decode push leg ends when
	// the router's write returns, not when the decode node has the bytes.
	TransferSeconds metrics.PercentileSummary `json:"transfer_seconds"`
	Replicas        []ReplicaStatus           `json:"replicas"`
	// Chaos is the fault injector's activity when one is attached.
	Chaos *chaos.Stats `json:"chaos,omitempty"`
}

// Router fronts N decode replicas behind one submission API: it drives
// prefill on a prefill node, buffers the KV frames (what makes failover
// possible), places the decode on the least-loaded healthy replica, and
// proxies the token stream back, deduplicating by token index across
// retries.
type Router struct {
	cfg   RouterConfig
	hello netsim.Hello

	mu       sync.Mutex
	prefills []string
	replicas []*replica
	nextPre  int

	reqID     atomic.Uint64
	requests  atomic.Int64
	completed atomic.Int64
	failed    atomic.Int64
	retries   atomic.Int64
	failovers atomic.Int64

	linkMu    sync.Mutex
	linkBytes map[string]int64
	transferS []float64

	http   *nodeHTTP
	hc     *http.Client
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// NewRouter validates the config, probes the initial decode replicas,
// and starts the health monitor.
func NewRouter(cfg RouterConfig) (*Router, error) {
	if len(cfg.Prefills) == 0 {
		return nil, errors.New("disagg: router needs at least one prefill address")
	}
	if cfg.Spec.Layers == 0 && cfg.Spec.Hidden == 0 {
		cfg.Spec = model.Toy()
	}
	if cfg.NodeID == "" {
		cfg.NodeID = "router"
	}
	if cfg.MethodName == "" {
		cfg.MethodName = "hack"
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 2 * time.Second
	}
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = defaultFrameTimeout
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = 500 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 2
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 50 * time.Millisecond
	}
	if cfg.RetryBudget <= 0 {
		cfg.RetryBudget = 5 * time.Second
	}
	if cfg.Dialer == nil && cfg.Chaos != nil {
		cfg.Dialer = cfg.Chaos.Dialer(nil)
	}
	r := &Router{
		cfg:       cfg,
		prefills:  append([]string(nil), cfg.Prefills...),
		linkBytes: make(map[string]int64),
		hc:        &http.Client{Timeout: cfg.DialTimeout},
		closed:    make(chan struct{}),
	}
	r.hello = netsim.Hello{
		Role: "router", NodeID: cfg.NodeID, Method: cfg.MethodName,
		ModelSeed: cfg.ModelSeed, SpecName: cfg.Spec.Name, Vocab: cfg.Spec.Vocab,
	}
	for _, addr := range cfg.Decodes {
		if err := r.AddReplica(addr); err != nil {
			return nil, err
		}
	}
	if cfg.HTTPAddr != "" {
		h, err := newNodeHTTP(cfg.HTTPAddr, func() any { return r.Report() },
			r.writeProm, func() bool { return false })
		if err != nil {
			return nil, err
		}
		r.http = h
	}
	r.wg.Add(1)
	go r.healthLoop()
	return r, nil
}

// HTTPAddr returns the router's metrics address ("" when disabled).
func (r *Router) HTTPAddr() string {
	if r.http == nil {
		return ""
	}
	return r.http.Addr()
}

// dial opens a link through the router's (possibly fault-injected)
// dialer and runs the handshake.
func (r *Router) dial(addr string) (net.Conn, netsim.Hello, error) {
	return dialWith(r.cfg.Dialer, addr, r.hello, r.cfg.DialTimeout)
}

// AddReplica registers a decode replica and probes it once. A peer that
// answers the handshake with mismatched deployment parameters is
// refused; one that is merely unreachable is registered unhealthy and
// picked up by the health monitor when it appears.
func (r *Router) AddReplica(addr string) error {
	rep := &replica{addr: addr,
		breaker: chaos.NewBreaker(r.cfg.BreakerThreshold, r.cfg.BreakerCooldown)}
	conn, peer, err := r.dial(addr)
	if err == nil {
		conn.Close()
		rep.healthy.Store(true)
		if peer.HTTPAddr != "" {
			rep.httpAddr.Store(peer.HTTPAddr)
		}
	} else if errors.Is(err, netsim.ErrHandshakeRefused) {
		return fmt.Errorf("disagg: replica %s: %w", addr, err)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, have := range r.replicas {
		if have.addr == addr {
			return fmt.Errorf("disagg: replica %s already registered", addr)
		}
	}
	r.replicas = append(r.replicas, rep)
	return nil
}

// RemoveReplica deregisters a decode replica. In-flight streams on it
// are unaffected; new placements stop immediately. Pair with the decode
// node's Drain for a drain-aware removal.
func (r *Router) RemoveReplica(addr string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, rep := range r.replicas {
		if rep.addr == addr {
			r.replicas = append(r.replicas[:i], r.replicas[i+1:]...)
			return
		}
	}
}

// isRetryable reports whether err is a transport-level failure (dial
// refused, reset, timeout, a peer dying mid-stream) where trying
// another node can help, rather than a protocol-level refusal.
func isRetryable(err error) bool {
	if errors.Is(err, netsim.ErrHandshakeRefused) {
		return false
	}
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	// Wire-level garbage and missed frame deadlines: the link (or peer)
	// is broken, not the request — another node can still serve it. Frame
	// heads sit outside the frame CRC, so a bit-flip there surfaces as
	// ErrFrameCorrupt instead of ErrChecksum; both are the same link fault.
	if errors.Is(err, netsim.ErrChecksum) || errors.Is(err, netsim.ErrFrameCorrupt) ||
		errors.Is(err, netsim.ErrWireTimeout) {
		return true
	}
	var ne net.Error
	if errors.As(err, &ne) {
		return true
	}
	var oe *net.OpError
	return errors.As(err, &oe)
}

// Close stops the health monitor and waits for in-flight submissions.
func (r *Router) Close() error {
	r.once.Do(func() {
		r.mu.Lock() // serialize with Submit's closed-check + wg.Add
		close(r.closed)
		r.mu.Unlock()
	})
	if r.http != nil {
		r.http.Close()
	}
	r.wg.Wait()
	return nil
}

// Report snapshots the router's counters, per-link KV bytes, transfer
// latency percentiles, and per-replica occupancy.
func (r *Router) Report() Report {
	out := Report{
		Requests:  r.requests.Load(),
		Completed: r.completed.Load(),
		Failed:    r.failed.Load(),
		Retries:   r.retries.Load(),
		Failovers: r.failovers.Load(),
	}
	r.linkMu.Lock()
	out.LinkKVBytes = make(map[string]int64, len(r.linkBytes))
	for k, v := range r.linkBytes {
		out.LinkKVBytes[k] = v
	}
	samples := append([]float64(nil), r.transferS...)
	r.linkMu.Unlock()
	out.TransferSeconds = metrics.Summarize(samples)
	r.mu.Lock()
	reps := append([]*replica(nil), r.replicas...)
	r.mu.Unlock()
	for _, rep := range reps {
		out.Replicas = append(out.Replicas, ReplicaStatus{
			Addr:           rep.addr,
			Healthy:        rep.healthy.Load(),
			Draining:       rep.draining.Load(),
			Inflight:       rep.inflight.Load(),
			PendingKVBytes: rep.pendingKV.Load(),
			Requests:       rep.requests.Load(),
			Breaker:        rep.breaker.Status(),
		})
	}
	if r.cfg.Chaos != nil {
		st := r.cfg.Chaos.Stats()
		out.Chaos = &st
	}
	sort.Slice(out.Replicas, func(i, j int) bool { return out.Replicas[i].Addr < out.Replicas[j].Addr })
	return out
}

// WritePrometheus renders the router counters in Prometheus text
// format (exposition format 0.0.4).
func (r *Router) WritePrometheus(w io.Writer) error { return r.writeProm(w) }

// writeProm renders the router counters in Prometheus text format.
func (r *Router) writeProm(w io.Writer) error {
	rep := r.Report()
	var err error
	emit := func(name, help string, v int64) {
		if err == nil {
			_, err = fmt.Fprintf(w,
				"# HELP hackserved_router_%s %s\n# TYPE hackserved_router_%s counter\nhackserved_router_%s %d\n",
				name, help, name, name, v)
		}
	}
	emit("requests_total", "Requests submitted.", rep.Requests)
	emit("completed_total", "Requests completed.", rep.Completed)
	emit("failed_total", "Requests failed.", rep.Failed)
	emit("retries_total", "Decode attempts retried.", rep.Retries)
	emit("failovers_total", "Transfers failed over to another replica.", rep.Failovers)
	if err != nil {
		return err
	}

	// Per-replica breaker state (0 closed, 1 open, 2 half-open) plus
	// aggregated breaker counters.
	var trips, probes, refusals, open int64
	_, err = fmt.Fprintf(w, "# HELP breaker_state Circuit breaker position per decode replica (0=closed, 1=open, 2=half-open).\n# TYPE breaker_state gauge\n")
	for _, rs := range rep.Replicas {
		state := int64(0)
		switch rs.Breaker.State {
		case "open":
			state = 1
			open++
		case "half-open":
			state = 2
			open++
		}
		if err == nil {
			_, err = fmt.Fprintf(w, "breaker_state{replica=%q} %d\n", rs.Addr, state)
		}
		trips += rs.Breaker.Trips
		probes += rs.Breaker.Probes
		refusals += rs.Breaker.Refusals
	}
	emit2 := func(name, help string, v int64) {
		if err == nil {
			_, err = fmt.Fprintf(w,
				"# HELP breaker_%s %s\n# TYPE breaker_%s counter\nbreaker_%s %d\n",
				name, help, name, name, v)
		}
	}
	emit2("trips_total", "Breaker open transitions across replicas.", trips)
	emit2("probes_total", "Half-open probes granted across replicas.", probes)
	emit2("refusals_total", "Placements refused by open breakers.", refusals)
	if err == nil {
		_, err = fmt.Fprintf(w,
			"# HELP breaker_open Replicas currently open or half-open.\n# TYPE breaker_open gauge\nbreaker_open %d\n", open)
	}
	if err == nil && r.cfg.Chaos != nil {
		err = r.cfg.Chaos.WritePrometheus(w)
	}
	return err
}

// healthLoop polls every replica's /healthz: 200 marks it healthy, 503
// marks it draining (kept for visibility, skipped for placement), and a
// transport error marks it unhealthy. Replicas without a known HTTP
// address are probed over the wire instead.
func (r *Router) healthLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
		}
		r.mu.Lock()
		reps := append([]*replica(nil), r.replicas...)
		r.mu.Unlock()
		for _, rep := range reps {
			r.probe(rep)
			r.probeBreaker(rep)
		}
	}
}

// probeBreaker runs the half-open probe out of band. pick only risks a
// request-carrying probe when no closed-breaker replica exists, so with
// one healthy peer absorbing all placements a tripped breaker would
// otherwise stay open forever and the healed replica never rejoin. A
// dial+handshake through the router's own dialer exercises the same
// wire path that tripped the breaker — recovery re-admits the replica
// without gambling a live request on it.
func (r *Router) probeBreaker(rep *replica) {
	if rep.breaker.State() == chaos.BreakerClosed {
		return
	}
	if !rep.breaker.Allow() {
		return // still cooling down, or a probe is already in flight
	}
	conn, _, err := r.dial(rep.addr)
	if err != nil {
		rep.breaker.Failure()
		return
	}
	conn.Close()
	rep.breaker.Success()
}

func (r *Router) probe(rep *replica) {
	if ha := rep.httpAddrStr(); ha != "" {
		resp, err := r.hc.Get("http://" + ha + "/healthz")
		if err != nil {
			rep.healthy.Store(false)
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			rep.healthy.Store(true)
			rep.draining.Store(false)
		case http.StatusServiceUnavailable:
			rep.healthy.Store(true)
			rep.draining.Store(true)
		default:
			rep.healthy.Store(false)
		}
		return
	}
	conn, peer, err := r.dial(rep.addr)
	if err != nil {
		rep.healthy.Store(false)
		return
	}
	conn.Close()
	rep.healthy.Store(true)
	if peer.HTTPAddr != "" {
		rep.httpAddr.Store(peer.HTTPAddr)
	}
}

// pick returns the healthy, non-draining replica with the lowest load
// score — pending KV bytes plus an in-flight-request penalty, the wire
// analogue of the simulator's LoadAware drain estimate. Replicas with a
// tripped circuit breaker are skipped: the breaker covers the failure
// mode /healthz cannot see, a replica whose HTTP side answers while its
// wire side drops or corrupts every transfer. When every candidate's
// breaker is tripped, pick offers the half-open probe slot to one of
// them so a recovered replica can re-admit itself.
//
// avoid is the replica whose last attempt for this request just failed:
// before its breaker has accumulated enough failures to trip, load-score
// ties would otherwise re-place every retry on the same broken link
// while a clean replica sits idle. It is only a preference — when no
// other candidate exists (single replica, everyone else down), the
// failed replica is offered again.
func (r *Router) pick(avoid *replica) *replica {
	if rep := r.pickExcluding(avoid); rep != nil {
		return rep
	}
	if avoid != nil {
		return r.pickExcluding(nil)
	}
	return nil
}

func (r *Router) pickExcluding(avoid *replica) *replica {
	r.mu.Lock()
	reps := append([]*replica(nil), r.replicas...)
	r.mu.Unlock()
	const inflightPenalty = 1 << 20
	var best *replica
	var bestScore int64
	for _, rep := range reps {
		if rep == avoid || !rep.healthy.Load() || rep.draining.Load() {
			continue
		}
		if rep.breaker.State() != chaos.BreakerClosed {
			continue
		}
		score := rep.pendingKV.Load() + inflightPenalty*rep.inflight.Load()
		if best == nil || score < bestScore {
			best, bestScore = rep, score
		}
	}
	if best != nil {
		return best
	}
	for _, rep := range reps {
		if rep == avoid || !rep.healthy.Load() || rep.draining.Load() {
			continue
		}
		if rep.breaker.Allow() {
			return rep
		}
	}
	return nil
}

// Submit routes one request through the disaggregated pipeline. The
// returned stream is live immediately; prefill, transfer, placement,
// and failover all happen behind it.
func (r *Router) Submit(ctx context.Context, req Request) (*Stream, error) {
	if len(req.Prompt) == 0 {
		return nil, errors.New("disagg: empty prompt")
	}
	// The closed-check and wg.Add must be atomic with respect to Close:
	// otherwise Submit can pass the check, Close can finish wg.Wait, and
	// the late wg.Add races the waitgroup's reuse.
	r.mu.Lock()
	select {
	case <-r.closed:
		r.mu.Unlock()
		return nil, errors.New("disagg: router closed")
	default:
	}
	r.wg.Add(1)
	r.mu.Unlock()
	buf := req.MaxNewTokens
	if buf <= 0 || buf > 4096 {
		buf = 4096
	}
	st := &Stream{tokens: make(chan TokenMsg, buf+1), closed: make(chan struct{})}
	r.requests.Add(1)
	go func() {
		defer r.wg.Done()
		err := r.run(ctx, req, st)
		if err != nil {
			r.failed.Add(1)
		} else {
			r.completed.Add(1)
		}
		st.finish(err)
	}()
	return st, nil
}

func (r *Router) run(ctx context.Context, req Request, st *Stream) error {
	id := r.reqID.Add(1)
	frames, err := r.runPrefill(ctx, id, req)
	if err != nil {
		return err
	}
	return r.runDecode(ctx, id, req, frames, st)
}

// runPrefill drives the prefill leg on the first reachable prefill node
// (round-robin start) and buffers every KV frame. The buffered frames
// are the failover capital: a decode retry re-ships them without
// touching the prefill tier again.
func (r *Router) runPrefill(ctx context.Context, id uint64, req Request) ([][]byte, error) {
	r.mu.Lock()
	addrs := append([]string(nil), r.prefills...)
	start := r.nextPre
	r.nextPre = (r.nextPre + 1) % len(r.prefills)
	r.mu.Unlock()

	var lastErr error
	for i := range addrs {
		addr := addrs[(start+i)%len(addrs)]
		frames, err := r.pullPrefill(ctx, addr, id, req)
		if err == nil {
			return frames, nil
		}
		lastErr = err
		if !isRetryable(err) {
			return nil, err // protocol-level refusal: retrying elsewhere won't help
		}
	}
	return nil, fmt.Errorf("%w: %v", ErrNoPrefill, lastErr)
}

func (r *Router) pullPrefill(ctx context.Context, addr string, id uint64, req Request) ([][]byte, error) {
	conn, _, err := r.dial(addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	start := time.Now()
	if err := writeJSONTimeout(conn, r.cfg.FrameTimeout, netsim.MsgPrefill, PrefillJob{RequestID: id, Prompt: req.Prompt, Seed: req.Seed}); err != nil {
		return nil, err
	}
	var frames [][]byte
	var total int64
	for {
		t, payload, err := netsim.ReadMessageTimeout(conn, r.cfg.FrameTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			return nil, err
		}
		switch t {
		case netsim.MsgFrame:
			frames = append(frames, payload)
			total += int64(len(payload))
		case netsim.MsgTransferEnd:
			r.recordTransfer("prefill→router "+addr, total, time.Since(start).Seconds())
			return frames, nil
		case netsim.MsgDone:
			var d DoneMsg
			if err := jsonUnmarshal(payload, &d); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("disagg: prefill %s: %s (%s)", addr, d.Err, d.Kind)
		default:
			return nil, fmt.Errorf("disagg: unexpected %v during prefill transfer", t)
		}
	}
}

func (r *Router) recordTransfer(link string, bytes int64, seconds float64) {
	r.linkMu.Lock()
	r.linkBytes[link] += bytes
	r.transferS = append(r.transferS, seconds)
	r.linkMu.Unlock()
}

// runDecode places the buffered transfer on a replica and proxies the
// token stream, retrying on replica death under a wall-clock budget
// with jittered exponential backoff (and the optional RetryMax count
// cap). Tokens are deduplicated by index, so a stream that failed over
// mid-flight still delivers each token exactly once, in order.
func (r *Router) runDecode(ctx context.Context, id uint64, req Request, frames [][]byte, st *Stream) error {
	// Jitter is seeded per request, so concurrent failovers desynchronize
	// instead of thundering back in lockstep, yet a replayed request
	// reproduces its exact retry schedule.
	bo := chaos.NewBackoff(r.cfg.RetryBackoff, 0, r.cfg.RetryJitter, r.cfg.RetryBudget, int64(id))
	lastDelivered := -1
	var lastErr error
	var lastFailed *replica
	sawReplica := false
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r.cfg.RetryMax >= 0 && attempt > r.cfg.RetryMax {
				break
			}
			d, ok := bo.Next()
			if !ok {
				break // retry budget exhausted
			}
			r.retries.Add(1)
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		rep := r.pick(lastFailed)
		if rep == nil {
			lastErr = ErrNoReplicas
			continue
		}
		sawReplica = true
		err, terminal := r.tryDecode(ctx, rep, id, req, frames, st, &lastDelivered)
		if err == nil {
			return nil
		}
		if terminal {
			return err
		}
		lastErr = err
		lastFailed = rep
		if lastDelivered >= 0 {
			r.failovers.Add(1) // died mid-stream; the next attempt resumes it
		}
	}
	if !sawReplica {
		return ErrNoReplicas
	}
	return fmt.Errorf("%w: %v", ErrTransferFailed, lastErr)
}

// tryDecode runs one decode attempt on one replica. The bool result
// distinguishes terminal failures (bad request, context cancellation)
// from retryable ones (replica death, drain, queue pressure).
func (r *Router) tryDecode(ctx context.Context, rep *replica, id uint64, req Request, frames [][]byte, st *Stream, lastDelivered *int) (err error, terminal bool) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	var total int64
	for _, f := range frames {
		total += int64(len(f))
	}
	rep.pendingKV.Add(total)
	defer rep.pendingKV.Add(-total)

	// Every exit resolves the breaker exactly once: transport faults feed
	// Failure, a clean stream feeds Success, and everything else (our own
	// cancellation, backpressure) releases a held half-open probe slot
	// without judging the replica.
	verdict := 0
	defer func() {
		switch {
		case verdict < 0:
			rep.breaker.Failure()
		case verdict > 0:
			rep.breaker.Success()
		default:
			rep.breaker.Cancel()
		}
	}()

	conn, _, err := r.dial(rep.addr)
	if err != nil {
		rep.healthy.Store(false)
		verdict = -1
		return err, false
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// fail classifies a transport failure: it marks the replica down and
	// feeds its breaker, unless the real cause was our own cancellation.
	fail := func(e error) (error, bool) {
		if ctx.Err() != nil {
			return ctx.Err(), true
		}
		rep.healthy.Store(false)
		verdict = -1
		return e, false
	}

	start := time.Now()
	job := DecodeJob{RequestID: id, PromptLen: len(req.Prompt), Seed: req.Seed,
		MaxNew: req.MaxNewTokens, EOS: req.EOS}
	if err := writeJSONTimeout(conn, r.cfg.FrameTimeout, netsim.MsgDecode, job); err != nil {
		return fail(err)
	}
	for _, f := range frames {
		if err := netsim.WriteMessageTimeout(conn, r.cfg.FrameTimeout, netsim.MsgFrame, f); err != nil {
			return fail(err)
		}
	}
	if err := netsim.WriteMessageTimeout(conn, r.cfg.FrameTimeout, netsim.MsgTransferEnd, nil); err != nil {
		return fail(err)
	}
	r.recordTransfer("router→decode "+rep.addr, total, time.Since(start).Seconds())
	rep.requests.Add(1)

	for {
		t, payload, err := netsim.ReadMessageTimeout(conn, r.cfg.FrameTimeout)
		if err != nil {
			return fail(err)
		}
		switch t {
		case netsim.MsgPing:
			if err := netsim.WriteMessage(conn, netsim.MsgPong, nil); err != nil {
				return fail(err)
			}
		case netsim.MsgToken:
			var tok TokenMsg
			if err := jsonUnmarshal(payload, &tok); err != nil {
				return fail(err)
			}
			if tok.Index > *lastDelivered {
				// The buffer is sized for the request's budget, but never
				// bet the goroutine on that: a blocked send must still
				// observe cancellation.
				select {
				case st.tokens <- tok:
				case <-ctx.Done():
					return ctx.Err(), true
				}
				*lastDelivered = tok.Index
			}
		case netsim.MsgDone:
			var d DoneMsg
			if err := jsonUnmarshal(payload, &d); err != nil {
				return fail(err)
			}
			if d.Err == "" {
				verdict = 1
				return nil, false
			}
			e := fmt.Errorf("disagg: decode %s: %s (%s)", rep.addr, d.Err, d.Kind)
			switch d.Kind {
			case "draining":
				rep.draining.Store(true)
				return e, false
			case "queue_full":
				// Backpressure, not a fault: the replica is alive and
				// answering, so the breaker stays out of it.
				return e, false
			case "transfer":
				// The replica saw our transfer break (corruption, frame
				// timeout): a link fault, charged to this link's breaker
				// and retried elsewhere.
				verdict = -1
				return e, false
			default:
				return e, true
			}
		default:
			return fmt.Errorf("disagg: unexpected %v in token stream", t), true
		}
	}
}
