package disagg

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/hackkv/hack/internal/chaos"
	"github.com/hackkv/hack/internal/metrics"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/serve"
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
	// FrameTimeout bounds each framed read/write inside a KV transfer or
	// token stream (default 10s), so a half-open peer surfaces as a
	// retryable timeout instead of wedging the request forever. Negative
	// disables the deadline.
	FrameTimeout time.Duration
	// Decode retries run under a wall-clock RetryBudget (default 5s)
	// with jittered exponential backoff starting at RetryBackoff
	// (default 50ms, doubling, jittered by ±10%). RetryMax additionally
	// caps the retry count: 0 selects the default cap (2, the
	// pre-budget behavior), negative means budget-only (no count cap).
	RetryMax     int
	RetryBackoff time.Duration
	RetryBudget  time.Duration
	// Each decode replica sits behind a circuit breaker that opens after
	// breakerThreshold consecutive transport failures of its wire jobs
	// and half-opens after BreakerCooldown (default 500ms), admitting one
	// probe. The breaker and the replica's draining bit are its whole
	// placement state: it takes requests while the breaker is closed and
	// it is not draining. Every BreakerCooldown the router dials each
	// replica that is out of placement; a completed handshake closes the
	// breaker, and the peer's Hello says whether it still drains. The
	// router asks its peers nothing over HTTP.
	BreakerCooldown time.Duration
	// Dialer replaces the network dialer on every link the router opens
	// (nil means the real network). Chaos, if set, is the fault injector
	// whose stats join the Report and /metrics; when Dialer is nil it
	// also provides the dialer, so every router link crosses the
	// injector's fault plans.
	Dialer chaos.Dialer
	Chaos  *chaos.Injector
}

// The router's fixed link policy.
const (
	// dialTimeout bounds each dial+handshake.
	dialTimeout = 2 * time.Second
	// breakerThreshold is the consecutive transport failures that open
	// a replica's breaker.
	breakerThreshold = 3
	// retryJitter randomizes each retry delay by ±retryJitter/2 of its
	// value.
	retryJitter = 0.2
)

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
// ErrStreamDiverged, or the context error). It satisfies the HTTP
// layer's stream interface as it is.
type Stream struct {
	tokens chan serve.Token
	closed chan struct{}
	err    error
	once   sync.Once
}

// Tokens returns the ordered token channel. It is buffered to the
// request's token budget, so a slow consumer never stalls a failover.
func (s *Stream) Tokens() <-chan serve.Token { return s.tokens }

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

// replica tracks one decode peer's placement state and load. Its
// breaker and draining bit are fed by the router's own wire jobs and
// dials. The load signals mirror the simulator's LoadAware scoring:
// pending KV bytes in flight to the replica plus its in-flight request
// count.
type replica struct {
	addr     string
	draining atomic.Bool
	breaker  *chaos.Breaker

	inflight  atomic.Int64
	pendingKV atomic.Int64
	requests  atomic.Int64
}

// ReplicaStatus is one decode replica's row in a Report.
type ReplicaStatus struct {
	Addr           string              `json:"addr"`
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
	// "prefill→router <addr>" and "router→decode <addr>": the total of
	// each completed leg. The same bytes cross both links, at the same
	// time.
	LinkKVBytes map[string]int64 `json:"link_kv_bytes"`
	// TransferSeconds samples one completed request each: from the first
	// KV frame the router read off the prefill link to the decode
	// replica's first token, which the replica sends only after restoring
	// every head. It holds the wire time of the overlapped crossings and
	// the restore, not the prefill compute.
	TransferSeconds metrics.PercentileSummary `json:"transfer_seconds"`
	Replicas        []ReplicaStatus           `json:"replicas"`
	// Chaos is the fault injector's activity when one is attached.
	Chaos *chaos.Stats `json:"chaos,omitempty"`
}

// Router fronts N decode replicas behind one submission API: it drives
// prefill on a prefill node, relays and logs the KV frames — placing
// the decode on the least-loaded replica in placement as soon as the first
// frame lands and forwarding each frame as it arrives, while the log
// is what makes failover possible — and proxies the token stream back,
// deduplicating by token index across retries.
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
	transferS metrics.Ring

	http   *nodeHTTP
	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup
}

// NewRouter validates the config, dials the initial decode replicas,
// and starts the rejoin loop.
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
	if cfg.FrameTimeout == 0 {
		cfg.FrameTimeout = defaultFrameTimeout
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 500 * time.Millisecond
	}
	if cfg.RetryMax == 0 {
		cfg.RetryMax = 2
	}
	if cfg.Dialer == nil && cfg.Chaos != nil {
		cfg.Dialer = cfg.Chaos.Dialer(nil)
	}
	r := &Router{
		cfg:       cfg,
		prefills:  append([]string(nil), cfg.Prefills...),
		linkBytes: make(map[string]int64),
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
	go r.rejoinLoop()
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
	return dialWith(r.cfg.Dialer, addr, r.hello, dialTimeout)
}

// AddReplica registers a decode replica and dials it once. A peer that
// answers the handshake with mismatched deployment parameters is
// refused. One that is merely unreachable is registered with that
// failed dial charged to its breaker: its next failed dials open the
// breaker, and the rejoin loop readmits it once a handshake completes.
func (r *Router) AddReplica(addr string) error {
	rep := &replica{addr: addr,
		breaker: chaos.NewBreaker(breakerThreshold, r.cfg.BreakerCooldown)}
	conn, peer, err := r.dial(addr)
	switch {
	case err == nil:
		conn.Close()
		rep.draining.Store(peer.Draining)
	case errors.Is(err, netsim.ErrHandshakeRefused):
		return fmt.Errorf("disagg: replica %s: %w", addr, err)
	default:
		rep.breaker.Failure()
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

// Close stops the rejoin loop and waits for in-flight submissions.
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
	samples := r.transferS.Snapshot()
	r.linkMu.Unlock()
	out.TransferSeconds = metrics.Summarize(samples)
	r.mu.Lock()
	reps := append([]*replica(nil), r.replicas...)
	r.mu.Unlock()
	for _, rep := range reps {
		out.Replicas = append(out.Replicas, ReplicaStatus{
			Addr:           rep.addr,
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
	p := metrics.NewProm(w)
	p.Counter("hackserved_router_requests_total", "Requests submitted.", rep.Requests)
	p.Counter("hackserved_router_completed_total", "Requests completed.", rep.Completed)
	p.Counter("hackserved_router_failed_total", "Requests failed.", rep.Failed)
	p.Counter("hackserved_router_retries_total", "Decode attempts retried.", rep.Retries)
	p.Counter("hackserved_router_failovers_total", "Transfers failed over to another replica.", rep.Failovers)

	// Per-replica breaker state (0 closed, 1 open, 2 half-open) plus
	// aggregated breaker counters.
	var trips, probes, refusals, open int64
	p.Head("breaker_state", "Circuit breaker position per decode replica (0=closed, 1=open, 2=half-open).", "gauge")
	for _, rs := range rep.Replicas {
		state := "0"
		switch rs.Breaker.State {
		case "open":
			state = "1"
			open++
		case "half-open":
			state = "2"
			open++
		}
		p.Sample("breaker_state", fmt.Sprintf("{replica=%q}", rs.Addr), state)
		trips += rs.Breaker.Trips
		probes += rs.Breaker.Probes
		refusals += rs.Breaker.Refusals
	}
	p.Counter("breaker_trips_total", "Breaker open transitions across replicas.", trips)
	p.Counter("breaker_probes_total", "Half-open probes granted across replicas.", probes)
	p.Counter("breaker_refusals_total", "Placements refused by open breakers.", refusals)
	p.Gauge("breaker_open", "Replicas currently open or half-open.", open)
	if p.Err() == nil && r.cfg.Chaos != nil {
		return r.cfg.Chaos.WritePrometheus(w)
	}
	return p.Err()
}

// rejoinLoop dials, every BreakerCooldown, each replica that is out of
// placement: one whose breaker is not closed, and one marked draining.
// pick risks a request on a tripped replica only when no replica's
// breaker is closed, so with one replica absorbing every placement a
// tripped or drained one would otherwise never rejoin.
func (r *Router) rejoinLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.BreakerCooldown)
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
			if rep.draining.Load() || rep.breaker.State() != chaos.BreakerClosed {
				r.probe(rep)
			}
		}
	}
}

// probe dials one replica through the router's own dialer, so it
// crosses the same wire path the replica's jobs do, without gambling a
// live request on it. A completed handshake closes the breaker and
// takes the peer's Hello as the word on its drain; a failed one counts
// against the breaker. A breaker still cooling down, or whose probe
// slot a request holds, is left alone.
func (r *Router) probe(rep *replica) {
	if !rep.breaker.Allow() {
		return
	}
	conn, peer, err := r.dial(rep.addr)
	if err != nil {
		rep.breaker.Failure()
		return
	}
	conn.Close()
	rep.breaker.Success()
	rep.draining.Store(peer.Draining)
}

// pick returns the non-draining replica with a closed breaker and the
// lowest load score — pending KV bytes plus an in-flight-request
// penalty, the wire analogue of the simulator's LoadAware drain
// estimate. When every non-draining candidate's breaker is tripped,
// pick offers the half-open probe slot to one of them so a recovered
// replica can re-admit itself.
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
		if rep == avoid || rep.draining.Load() {
			continue
		}
		if rep.breaker.State() != chaos.BreakerClosed {
			continue
		}
		// Equal load goes to the replica that has served the fewest
		// requests, so idle replicas share sequential work instead of
		// the first one taking every tie.
		score := rep.pendingKV.Load() + inflightPenalty*rep.inflight.Load()
		if best == nil || score < bestScore ||
			(score == bestScore && rep.requests.Load() < best.requests.Load()) {
			best, bestScore = rep, score
		}
	}
	if best != nil {
		return best
	}
	for _, rep := range reps {
		if rep == avoid || rep.draining.Load() {
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
	st := &Stream{tokens: make(chan serve.Token, buf+1), closed: make(chan struct{})}
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
	r.mu.Lock()
	addrs := append([]string(nil), r.prefills...)
	start := r.nextPre
	r.nextPre = (r.nextPre + 1) % len(r.prefills)
	r.mu.Unlock()

	// The first prefill node that takes the job (round-robin start) runs
	// it. A node that is unreachable, answers queue_full or draining, or
	// whose transfer breaks — before its first frame or mid-relay —
	// passes the job to the next one, which fills a fresh log.
	var lastErr error
	for i := range addrs {
		prefillErr, err := r.relay(ctx, addrs[(start+i)%len(addrs)], id, req, st)
		if prefillErr == nil {
			return err
		}
		if ctx.Err() != nil {
			return ctx.Err()
		}
		lastErr = prefillErr
		if !isRetryable(prefillErr) && !errors.Is(prefillErr, errPrefillBusy) {
			return prefillErr // protocol-level refusal: retrying elsewhere won't help
		}
	}
	return fmt.Errorf("%w: %v", ErrNoPrefill, lastErr)
}

// errPrefillBusy marks a prefill node's refusal that another prefill
// node may not share: a full queue, a drain, or a broken transfer.
var errPrefillBusy = errors.New("disagg: prefill node cannot take the job")

// transfer is one request's KV frame log: the prefill leg appends each
// frame, and decode attempts read it from frame 0 while it is still
// filling, waiting on frames that have not landed. A complete log is the
// failover capital — a decode retry replays it without touching the
// prefill tier again — and a failed prefill leg voids it.
type transfer struct {
	mu     sync.Mutex
	frames [][]byte
	first  time.Time     // when frame 0 landed
	grew   chan struct{} // closed when a frame lands or the log is sealed
	sealed bool
	err    error // the prefill leg's failure
}

func newTransfer() *transfer { return &transfer{grew: make(chan struct{})} }

// add appends one CRC-checked frame and wakes every waiting reader.
func (x *transfer) add(frame []byte) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if len(x.frames) == 0 {
		x.first = time.Now()
	}
	x.frames = append(x.frames, frame)
	close(x.grew)
	x.grew = make(chan struct{})
}

// seal ends the log: complete when err is nil (the prefill leg read
// MsgTransferEnd), void otherwise.
func (x *transfer) seal(err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.sealed, x.err = true, err
	close(x.grew)
}

// at returns frame i if it has landed (a landed frame is never nil).
// Otherwise it returns a channel that closes when the log next changes,
// or neither once the log is complete and i is past its end. A non-nil
// err is the prefill leg's failure: the log is void, and nothing more
// of it may be relayed.
func (x *transfer) at(i int) (frame []byte, grew <-chan struct{}, err error) {
	x.mu.Lock()
	defer x.mu.Unlock()
	switch {
	case x.err != nil:
		return nil, nil, x.err
	case i < len(x.frames):
		return x.frames[i], nil, nil
	case x.sealed:
		return nil, nil, nil
	}
	return nil, x.grew, nil
}

// wait blocks until frame i has landed or the log is sealed, and
// returns the prefill leg's failure, if any.
func (x *transfer) wait(i int) error {
	for {
		f, grew, err := x.at(i)
		if err != nil || f != nil || grew == nil {
			return err
		}
		<-grew
	}
}

// start is when frame 0 landed.
func (x *transfer) start() time.Time {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.first
}

// prefillLost is a prefill-leg failure that a decode attempt saw
// mid-relay. It ends the attempt without judging the replica, and the
// job moves to the next prefill node.
type prefillLost struct{ err error }

func (e prefillLost) Error() string { return "disagg: prefill leg lost mid-relay: " + e.err.Error() }
func (e prefillLost) Unwrap() error { return e.err }

// relay runs one prefill leg on addr into a fresh frame log, in its own
// goroutine, and relays the log to a decode replica from the moment its
// first frame lands, so the two wire crossings overlap. A non-nil
// prefillErr means the prefill leg failed — before its first frame, or
// mid-relay, which cancelled the decode attempt reading the log — and
// the job may move to the next prefill node; otherwise err is the
// request's outcome. The prefill goroutine is joined before relay
// returns.
func (r *Router) relay(ctx context.Context, addr string, id uint64, req Request, st *Stream) (prefillErr, err error) {
	x := newTransfer()
	legCtx, cancel := context.WithCancel(ctx)
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		x.seal(r.pullPrefill(legCtx, addr, id, req, x))
	}()
	defer func() {
		cancel()
		<-joined
	}()
	if err := x.wait(0); err != nil {
		return err, nil
	}
	err = r.runDecode(ctx, id, req, x, st)
	var lost prefillLost
	if errors.As(err, &lost) {
		return lost.err, nil
	}
	return nil, err
}

// pullPrefill runs the prefill leg: it sends the job to addr and adds
// each KV frame to x once ReadMessageTimeout has checked the frame's CRC,
// so a frame corrupted on the prefill link never reaches a decode node.
func (r *Router) pullPrefill(ctx context.Context, addr string, id uint64, req Request, x *transfer) error {
	conn, _, err := r.dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	if err := writeJSONTimeout(conn, r.cfg.FrameTimeout, netsim.MsgPrefill, PrefillJob{RequestID: id, Prompt: req.Prompt, Seed: req.Seed}); err != nil {
		return err
	}
	var total int64
	for {
		t, payload, err := netsim.ReadMessageTimeout(conn, r.cfg.FrameTimeout)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return err
		}
		switch t {
		case netsim.MsgFrame:
			x.add(payload)
			total += int64(len(payload))
		case netsim.MsgTransferEnd:
			r.addLinkBytes("prefill→router "+addr, total)
			return nil
		case netsim.MsgDone:
			var d DoneMsg
			if err := jsonUnmarshal(payload, &d); err != nil {
				return err
			}
			switch d.Kind {
			case "queue_full", "draining", "transfer":
				return fmt.Errorf("%w: %s: %s (%s)", errPrefillBusy, addr, d.Err, d.Kind)
			}
			return fmt.Errorf("disagg: prefill %s: %s (%s)", addr, d.Err, d.Kind)
		default:
			return fmt.Errorf("disagg: unexpected %v during prefill transfer", t)
		}
	}
}

func (r *Router) addLinkBytes(link string, n int64) {
	r.linkMu.Lock()
	r.linkBytes[link] += n
	r.linkMu.Unlock()
}

func (r *Router) addTransferSample(seconds float64) {
	r.linkMu.Lock()
	r.transferS.Add(seconds)
	r.linkMu.Unlock()
}

// delivery is what one request's stream has delivered across decode
// attempts: every token id by index (so a replayed index can be held to
// the id already sent) and when the first token arrived.
type delivery struct {
	ids   []int
	first time.Time
}

// runDecode places the relay on a replica and proxies the token stream,
// retrying on replica death under a wall-clock budget with jittered
// exponential backoff (and the optional RetryMax count cap). Each retry
// replays the log from frame 0, waiting on frames that have not landed
// yet. Tokens are deduplicated by index, so a stream that failed over
// mid-flight still delivers each token exactly once, in order; a
// replayed index carrying a different id fails the request with
// ErrStreamDiverged.
func (r *Router) runDecode(ctx context.Context, id uint64, req Request, x *transfer, st *Stream) error {
	// Jitter is seeded per request, so concurrent failovers desynchronize
	// instead of thundering back in lockstep, yet a replayed request
	// reproduces its exact retry schedule.
	bo := chaos.NewBackoff(r.cfg.RetryBackoff, 0, retryJitter, r.cfg.RetryBudget, int64(id))
	var d delivery
	var lastErr error
	var lastFailed *replica
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			if r.cfg.RetryMax >= 0 && attempt > r.cfg.RetryMax {
				break
			}
			wait, ok := bo.Next()
			if !ok {
				break // retry budget exhausted
			}
			r.retries.Add(1)
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		rep := r.pick(lastFailed)
		if rep == nil {
			lastErr = ErrNoReplicas
			continue
		}
		err, terminal := r.tryDecode(ctx, rep, id, req, x, st, &d)
		if err == nil {
			if !d.first.IsZero() {
				r.addTransferSample(d.first.Sub(x.start()).Seconds())
			}
			return nil
		}
		if terminal {
			return err
		}
		lastErr = err
		lastFailed = rep
		if len(d.ids) > 0 {
			r.failovers.Add(1) // died mid-stream; the next attempt resumes it
		}
	}
	if lastErr == ErrNoReplicas {
		// The final pick found no replica: they drained or went away
		// while this request waited, whatever the earlier attempts met.
		return ErrNoReplicas
	}
	return fmt.Errorf("%w: %v", ErrTransferFailed, lastErr)
}

// wireMsg is one message a peer sent, or the error that ended its stream.
type wireMsg struct {
	t       netsim.MsgType
	payload []byte
	err     error
}

// tryDecode runs one decode attempt on one replica: it sends the job,
// writes each logged frame as it lands and MsgTransferEnd once the log
// is complete, and proxies the token stream back. The bool result
// distinguishes terminal failures (bad request, cancellation, a lost
// prefill leg, a diverged replay) from retryable ones (replica death,
// drain, queue pressure).
func (r *Router) tryDecode(ctx context.Context, rep *replica, id uint64, req Request, x *transfer, st *Stream, d *delivery) (err error, terminal bool) {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	var relayed int64 // framed KV bytes written to this replica
	defer func() { rep.pendingKV.Add(-relayed) }()

	// Every exit resolves the breaker exactly once: transport faults feed
	// Failure, a clean stream feeds Success, and everything else (our own
	// cancellation, a lost prefill leg, backpressure) releases a held
	// half-open probe slot without judging the replica.
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

	conn, peer, err := r.dial(rep.addr)
	if err != nil {
		verdict = -1
		return err, false
	}
	defer conn.Close()
	if peer.Draining {
		// The replica said so in its hello: send it nothing, so the KV
		// log is not relayed to a node that will refuse the job.
		rep.draining.Store(true)
		return fmt.Errorf("disagg: decode %s: draining", rep.addr), false
	}
	stop := context.AfterFunc(ctx, func() { conn.Close() })
	defer stop()

	// The replica's replies are read from the start, so one that dies
	// mid-relay is seen at once rather than at the next frame. It owes
	// nothing until MsgTransferEnd is out, so reads are unbounded until
	// armed; from then on each is bounded by FrameTimeout.
	var armed atomic.Bool
	replies := make(chan wireMsg)
	quit := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			var m wireMsg
			if armed.Load() {
				m.t, m.payload, m.err = netsim.ReadMessageTimeout(conn, r.cfg.FrameTimeout)
			} else {
				m.t, m.payload, m.err = netsim.ReadMessage(conn)
			}
			select {
			case replies <- m:
			case <-quit:
				return
			}
			if m.err != nil {
				return
			}
		}
	}()
	defer func() {
		close(quit)
		conn.Close()
		<-readerDone
	}()

	// fail classifies a transport failure: it feeds the replica's
	// breaker, unless the real cause was our own cancellation.
	fail := func(e error) (error, bool) {
		if ctx.Err() != nil {
			return ctx.Err(), true
		}
		verdict = -1
		return e, false
	}

	job := DecodeJob{RequestID: id, PromptLen: len(req.Prompt), Seed: req.Seed,
		MaxNew: req.MaxNewTokens, EOS: req.EOS}
	if err := writeJSONTimeout(conn, r.cfg.FrameTimeout, netsim.MsgDecode, job); err != nil {
		return fail(err)
	}
	next := 0 // the next log frame to relay; -1 once MsgTransferEnd is out
	for {
		var grew <-chan struct{}
		if next >= 0 {
			f, g, err := x.at(next)
			switch {
			case err != nil:
				// The prefill link failed: the replica is not at fault.
				return prefillLost{err}, true
			case f != nil:
				rep.pendingKV.Add(int64(len(f)))
				relayed += int64(len(f))
				if err := netsim.WriteMessageTimeout(conn, r.cfg.FrameTimeout, netsim.MsgFrame, f); err != nil {
					return fail(err)
				}
				next++
				continue
			case g != nil:
				grew = g
			default:
				if err := netsim.WriteMessageTimeout(conn, r.cfg.FrameTimeout, netsim.MsgTransferEnd, nil); err != nil {
					return fail(err)
				}
				r.addLinkBytes("router→decode "+rep.addr, relayed)
				rep.requests.Add(1)
				armed.Store(true)
				if r.cfg.FrameTimeout > 0 {
					_ = conn.SetReadDeadline(time.Now().Add(r.cfg.FrameTimeout))
				}
				next = -1
			}
		}
		var m wireMsg
		select {
		case <-grew:
			continue
		case m = <-replies:
		}
		if m.err != nil {
			return fail(m.err)
		}
		switch m.t {
		case netsim.MsgPing:
			if err := netsim.WriteMessage(conn, netsim.MsgPong, nil); err != nil {
				return fail(err)
			}
		case netsim.MsgToken:
			var tok TokenMsg
			if err := jsonUnmarshal(m.payload, &tok); err != nil {
				return fail(err)
			}
			switch n := len(d.ids); {
			case tok.Index == n:
				if n == 0 {
					d.first = time.Now()
				}
				// The buffer is sized for the request's budget, but never
				// bet the goroutine on that: a blocked send must still
				// observe cancellation.
				select {
				case st.tokens <- tok:
				case <-ctx.Done():
					return ctx.Err(), true
				}
				d.ids = append(d.ids, tok.ID)
			case tok.Index < 0 || tok.Index > n || d.ids[tok.Index] != tok.ID:
				return fmt.Errorf("%w: replica %s sent token %d as id %d after %d delivered",
					ErrStreamDiverged, rep.addr, tok.Index, tok.ID, n), true
			}
			// Otherwise a replayed index carries the id already delivered.
		case netsim.MsgDone:
			var dm DoneMsg
			if err := jsonUnmarshal(m.payload, &dm); err != nil {
				return fail(err)
			}
			if dm.Err == "" {
				verdict = 1
				return nil, false
			}
			e := fmt.Errorf("disagg: decode %s: %s (%s)", rep.addr, dm.Err, dm.Kind)
			switch dm.Kind {
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
			return fmt.Errorf("disagg: unexpected %v in token stream", m.t), true
		}
	}
}
