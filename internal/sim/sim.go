// Package sim is the discrete-event simulator of the disaggregated
// serving cluster: prefill replicas with pluggable placement policies
// (shortest token queue, round-robin, fewest requests, FlowKV-style
// load-aware routing, KVServe-style SLO-aware admission), optional
// Sarathi-style chunked prefill, processor-shared transfer links into
// decode replicas, continuous-batching decode loops, memory-pressure
// admission with CPU swap (§4), decode-side preemption with KV
// re-transfer cost, and optional prefill/transfer pipelining (§2.1).
//
// Each simulated request records the paper's JCT decomposition — prefill,
// quantization, communication, dequantization-or-approximation, decode —
// plus the KV memory-access sub-bucket and peak decode memory, which is
// everything Figs. 1–4, 9–14 and Table 5 report, and the serving-level
// latencies (TTFT, TBT, queueing delay) SLO attainment is judged on.
package sim

import (
	"container/heap"
	"context"
	"fmt"

	"github.com/hackkv/hack/internal/cluster"
	"github.com/hackkv/hack/internal/netsim"
	"github.com/hackkv/hack/internal/workload"
)

// Config describes one simulated deployment.
type Config struct {
	// CM prices everything (model, instances, parallelism).
	CM *cluster.CostModel
	// Method is the serving method under test.
	Method cluster.Method
	// PrefillReplicas and DecodeReplicas count model replicas on each
	// side (the paper sizes pools so the sides have similar capacity).
	PrefillReplicas, DecodeReplicas int
	// MaxBatch caps a decode replica's concurrent batch.
	MaxBatch int
	// Pipeline overlaps KV transfer with prefill computation when the
	// target decode replica has memory at prefill start (§2.1).
	Pipeline bool
	// MemCapFrac is the usable fraction of decode replica memory.
	MemCapFrac float64
	// Scheduler selects the request-placement policy; the zero value is
	// the paper's shortest-token-queue scheduler.
	Scheduler Scheduler
	// PrefillChunk, when positive, splits prompts into chunks of at
	// most this many tokens; between chunks the replica round-robins
	// across its queue, so short prompts are not head-of-line blocked
	// behind long ones. Each extra pass costs one per-layer launch
	// overhead. 0 disables chunking.
	PrefillChunk int
	// Preemption lets a memory-starved swapped request evict the
	// admitted request with the most remaining decode work (at most
	// once per victim): the victim's KV — prompt plus generated tokens —
	// is swapped out and must be re-transferred before it resumes.
	Preemption bool
	// PreemptAfterS is how long an admissible swapped request waits
	// before it may preempt; 0 preempts at the first failed retry.
	PreemptAfterS float64
	// SLOTTFT and SLOTBT are the serving targets in seconds (time to
	// first token; mean time between subsequent tokens). Zero targets
	// are untracked. SLOAware admission steers against them and
	// Result.Summarize reports attainment.
	SLOTTFT, SLOTBT float64
	// MethodClasses are the fidelity-ordered candidates SLOAware
	// admission picks from (highest fidelity first). Empty defaults to
	// [Baseline, Method]. Ignored by every other scheduler.
	MethodClasses []cluster.Method
	// Probe, when non-nil, observes simulator transitions (tests,
	// tracing). It must not mutate simulator state; it never affects
	// results.
	Probe func(ProbeEvent)
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.CM == nil {
		return fmt.Errorf("sim: nil cost model")
	}
	if c.PrefillReplicas <= 0 || c.DecodeReplicas <= 0 {
		return fmt.Errorf("sim: replicas %d/%d", c.PrefillReplicas, c.DecodeReplicas)
	}
	if c.MaxBatch <= 0 {
		return fmt.Errorf("sim: max batch %d", c.MaxBatch)
	}
	if c.MemCapFrac <= 0 || c.MemCapFrac > 1 {
		return fmt.Errorf("sim: mem cap fraction %v outside (0, 1]", c.MemCapFrac)
	}
	if !c.Scheduler.valid() {
		return fmt.Errorf("sim: unknown scheduler %d (valid: %v)", c.Scheduler, SchedulerNames())
	}
	if c.PrefillChunk < 0 {
		return fmt.Errorf("sim: prefill chunk %d must be >= 0", c.PrefillChunk)
	}
	if c.PreemptAfterS < 0 {
		return fmt.Errorf("sim: preempt-after %v must be >= 0", c.PreemptAfterS)
	}
	if c.SLOTTFT < 0 || c.SLOTBT < 0 {
		return fmt.Errorf("sim: SLO targets %v/%v must be >= 0", c.SLOTTFT, c.SLOTBT)
	}
	return nil
}

// RequestStats is one request's timeline decomposition. Queue + Prefill
// + Quant + Comm + Decode + Overhead ≈ JCT (up to one iteration of
// batch-join slack; a preempted request additionally double-counts the
// remainder of the decode iteration it was evicted from); KVMem is a
// sub-bucket of Decode.
type RequestStats struct {
	ID            int
	Arrival, Done float64
	Queue         float64 // prefill queue wait (including inter-chunk waits)
	Prefill       float64 // prefill computation
	Quant         float64 // KV quantization at prefill
	Comm          float64 // exposed transfer + swap + admission wait
	Overhead      float64 // dequantization (baselines) or approximation (HACK)
	Decode        float64 // decode iterations minus Overhead
	KVMem         float64 // KV memory-access share inside Decode
	TTFT          float64 // time to first token: queue + prefill + quant
	TBT           float64 // mean time between subsequent tokens (0 for single-token outputs)
	Swapped       bool    // went through the CPU-swap path
	Preemptions   int     // times the request was evicted from a decode replica
	Chunks        int     // prefill passes the prompt took (1 unless chunked)
	Method        string  // serving method (per-request under SLO-aware admission)
	InputLen      int
	OutputLen     int
}

// JCT returns the request's job completion time.
func (r RequestStats) JCT() float64 { return r.Done - r.Arrival }

// Result aggregates one simulation run.
type Result struct {
	Requests []RequestStats
	// PeakMemFrac is the highest memory utilization any decode replica
	// reached (Table 5's metric).
	PeakMemFrac float64
	// SwappedCount counts requests that took the CPU-swap path.
	SwappedCount int
	// PreemptedCount counts requests evicted from a decode replica at
	// least once.
	PreemptedCount int
}

// request tracks in-flight state.
type request struct {
	workload.Request
	stats      RequestStats
	method     cluster.Method
	generated  int
	prefilled  int     // prompt tokens already prefilled (chunked prefill)
	chunkTo    int     // prompt tokens covered once the in-flight pass ends
	estPrefill float64 // estimated prefill seconds, for load-aware scoring
	memReserve float64
	prefillEnd float64
	commMark   float64 // start of the current exposed-communication span
	queuedAt   float64 // when the request last entered a prefill queue
	readyAt    float64 // parked-in-CPU requests become admissible here
}

// decodeTokens returns how many decode iterations the request needs (the
// first output token comes from prefill).
func (r *request) decodeTokens() int {
	n := r.OutputLen - 1
	if n < 0 {
		n = 0
	}
	return n
}

type prefillReplica struct {
	queue       []*request
	busy        bool
	queuedToks  int     // un-prefilled prompt tokens assigned here
	pendingWire float64 // KV bytes this replica has yet to finish producing
	drainS      float64 // estimated prefill seconds queued here
}

type decodeReplica struct {
	batch   []*request
	pending []*request
	// admitted counts requests holding a slot on this replica — batched,
	// pending, in transfer, or in a swap/ready limbo between events —
	// from reserve until completion or preemption. pickDecode caps it at
	// MaxBatch, so the replica can never oversubscribe through the
	// windows where a request is in none of the visible sets.
	admitted int
	usedMem  float64
	link     *netsim.SharedLink
	linkVer  int
	iterBusy bool
	inflight map[int]*request
}

const (
	evArrival = iota
	evPrefillDone
	evStartTransfer
	evTransferDone
	evReady
	evIterDone
	evRetry
)

type event struct {
	at      float64
	kind    int
	seq     int
	req     *request
	replica int
	ver     int
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type sim struct {
	cfg        Config
	events     eventQueue
	rrNext     int
	seq        int
	now        float64
	prefills   []*prefillReplica
	decodes    []*decodeReplica
	classes    []cluster.Method // SLO-aware admission candidates
	prefillBps float64          // prefill NIC effective bytes/s, for load scoring
	peakMem    float64
	swapWait   []*request
	done       int
	results    []RequestStats
	onDone     func(RequestStats)
}

// Run simulates the trace and returns per-request decompositions.
func Run(cfg Config, reqs []workload.Request) (*Result, error) {
	return RunContext(context.Background(), cfg, reqs, nil)
}

// RunContext is Run with cooperative cancellation and streaming: the
// simulation aborts with ctx.Err() as soon as ctx is done, and onRequest
// (which may be nil) is invoked with each request's stats the moment the
// request completes, in completion order. The returned Result is
// identical to Run's for the same inputs.
func RunContext(ctx context.Context, cfg Config, reqs []workload.Request, onRequest func(RequestStats)) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(reqs) == 0 {
		return nil, fmt.Errorf("sim: empty trace")
	}
	s := &sim{cfg: cfg, onDone: onRequest}
	s.resolveClasses()
	for i := 0; i < cfg.PrefillReplicas; i++ {
		s.prefills = append(s.prefills, &prefillReplica{})
	}
	// A decode replica's aggregate ingress is its GPU share of the
	// instance NIC; each individual transfer is additionally capped by
	// the sending prefill instance's NIC.
	decodeGPUs := cfg.CM.DecodePar.GPUsPerReplica()
	shareGbps := cfg.CM.Decode.NetGbps * float64(decodeGPUs) / float64(cfg.CM.Decode.NumGPUs)
	toBps := func(gbps float64) float64 { return gbps * 1e9 / 8 * cfg.CM.Params.NetEff }
	s.prefillBps = toBps(cfg.CM.Prefill.NetGbps)
	if s.prefillBps <= 0 {
		s.prefillBps = 1
	}
	for i := 0; i < cfg.DecodeReplicas; i++ {
		link, err := netsim.NewSharedLink(toBps(shareGbps), toBps(cfg.CM.Prefill.NetGbps))
		if err != nil {
			return nil, err
		}
		s.decodes = append(s.decodes, &decodeReplica{link: link, inflight: map[int]*request{}})
	}
	for i := range reqs {
		r := &request{Request: reqs[i]}
		r.stats = RequestStats{ID: reqs[i].ID, Arrival: reqs[i].ArrivalS,
			InputLen: reqs[i].InputLen, OutputLen: reqs[i].OutputLen}
		s.push(&event{at: reqs[i].ArrivalS, kind: evArrival, req: r})
	}

	for s.events.Len() > 0 {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := heap.Pop(&s.events).(*event)
		if e.at < s.now-1e-9 {
			return nil, fmt.Errorf("sim: time reversal %.6f -> %.6f", s.now, e.at)
		}
		if e.at > s.now {
			s.now = e.at
		}
		switch e.kind {
		case evArrival:
			s.onArrival(e.req)
		case evPrefillDone:
			s.onPrefillDone(e.req, e.replica)
		case evStartTransfer:
			s.onStartTransfer(e.req, e.replica)
		case evTransferDone:
			s.onTransferDone(e.replica, e.ver)
		case evReady:
			s.onReady(e.req, e.replica)
		case evIterDone:
			s.onIterDone(e.replica)
		case evRetry:
			s.retrySwapped()
		}
	}
	if s.done != len(reqs) {
		return nil, fmt.Errorf("sim: %d of %d requests completed", s.done, len(reqs))
	}
	res := &Result{Requests: s.results, PeakMemFrac: s.peakMem}
	for _, r := range s.results {
		if r.Swapped {
			res.SwappedCount++
		}
		if r.Preemptions > 0 {
			res.PreemptedCount++
		}
	}
	return res, nil
}

func (s *sim) push(e *event) {
	e.seq = s.seq
	s.seq++
	heap.Push(&s.events, e)
}

// onArrival admits the request (SLO-aware runs pick its compression
// method here) and assigns it to a prefill replica per the configured
// scheduler.
func (s *sim) onArrival(r *request) {
	r.method = s.admitMethod(r)
	r.stats.Method = r.method.Name
	compute, quant := s.cfg.CM.PrefillTimes(r.method, r.InputLen)
	r.estPrefill = compute + quant

	best := s.pickPrefill(r)
	p := s.prefills[best]
	r.queuedAt = s.now
	p.queue = append(p.queue, r)
	p.queuedToks += r.InputLen
	p.pendingWire += s.cfg.CM.WireBytes(r.method, r.InputLen)
	p.drainS += r.estPrefill
	s.probe("arrival", r.ID, best, 0, 0)
	if !p.busy {
		s.startPrefill(best)
	}
}

// startPrefill runs the next queued request's prefill — the whole
// prompt, or its next chunk when chunked prefill is on.
func (s *sim) startPrefill(pi int) {
	p := s.prefills[pi]
	if p.busy || len(p.queue) == 0 {
		return
	}
	r := p.queue[0]
	p.queue = p.queue[1:]
	p.busy = true
	r.stats.Queue += s.now - r.queuedAt

	end := r.InputLen
	var compute, quant float64
	if s.cfg.PrefillChunk > 0 {
		end = r.prefilled + s.cfg.PrefillChunk
		if end > r.InputLen {
			end = r.InputLen
		}
		compute, quant = s.cfg.CM.PrefillChunkTimes(r.method, r.prefilled, end)
	} else {
		compute, quant = s.cfg.CM.PrefillTimes(r.method, r.InputLen)
	}
	r.chunkTo = end
	r.stats.Prefill += compute
	r.stats.Quant += quant
	r.stats.Chunks++
	finish := s.now + compute + quant
	s.probe("prefill-start", r.ID, pi, 0, 0)

	if end == r.InputLen {
		r.prefillEnd = finish
		r.commMark = finish
		if s.cfg.Pipeline {
			// Overlap transfer with prefill when a decode replica can
			// take the request right now.
			if di, ok := s.pickDecode(r); ok {
				s.reserve(r, di)
				s.onStartTransfer(r, di)
			}
		}
	}
	s.push(&event{at: finish, kind: evPrefillDone, req: r, replica: pi})
}

// pickDecode returns the decode replica with the most free memory that
// fits the request.
func (s *sim) pickDecode(r *request) (int, bool) {
	need := s.cfg.CM.ResidentKVBytes(r.method, r.InputLen+r.OutputLen)
	capB := s.cfg.CM.DecodeReplicaCapacityBytes() * s.cfg.MemCapFrac
	baseMem := s.cfg.CM.DecodeMemoryBytes(s.cfg.Method, nil)
	best, bestFree := -1, 0.0
	for i, d := range s.decodes {
		if d.admitted >= s.cfg.MaxBatch {
			continue
		}
		free := capB - baseMem - d.usedMem
		if free >= need && free > bestFree {
			best, bestFree = i, free
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// reserve claims decode memory for the request.
func (s *sim) reserve(r *request, di int) {
	d := s.decodes[di]
	r.memReserve = s.cfg.CM.ResidentKVBytes(r.method, r.InputLen+r.OutputLen)
	d.usedMem += r.memReserve
	d.admitted++
	s.noteMem(di)
}

// onStartTransfer begins the KV transfer on the replica's shared link.
// The transferred bytes cover the prompt's KV plus any tokens generated
// before a preemption (re-transfers ship the full current cache).
func (s *sim) onStartTransfer(r *request, di int) {
	d := s.decodes[di]
	if err := d.link.AdvanceTo(s.now); err != nil {
		panic(err)
	}
	id, err := d.link.Start(s.cfg.CM.WireBytes(r.method, r.InputLen+r.generated))
	if err != nil {
		panic(err)
	}
	d.inflight[id] = r
	s.probe("transfer-start", r.ID, di, s.decodeOccupancy(di), s.memFrac(di))
	s.rescheduleLink(di)
}

// rescheduleLink re-arms the next transfer-completion event after the
// link's transfer set changed.
func (s *sim) rescheduleLink(di int) {
	d := s.decodes[di]
	d.linkVer++
	if _, at, ok := d.link.NextCompletion(); ok {
		s.push(&event{at: at, kind: evTransferDone, replica: di, ver: d.linkVer})
	}
}

func (s *sim) onPrefillDone(r *request, pi int) {
	p := s.prefills[pi]
	p.busy = false
	p.queuedToks -= r.chunkTo - r.prefilled
	r.prefilled = r.chunkTo
	if r.prefilled < r.InputLen {
		// Chunked prefill: cycle to the back of the queue so later
		// arrivals interleave at chunk granularity.
		r.queuedAt = s.now
		p.queue = append(p.queue, r)
		s.startPrefill(pi)
		return
	}
	p.pendingWire -= s.cfg.CM.WireBytes(r.method, r.InputLen)
	p.drainS -= r.estPrefill
	r.stats.TTFT = r.prefillEnd - r.stats.Arrival
	s.probe("prefill-done", r.ID, pi, 0, 0)
	s.startPrefill(pi)

	if r.memReserve > 0 {
		return // pipelined: transfer in flight or complete
	}
	if di, ok := s.pickDecode(r); ok {
		s.reserve(r, di)
		s.onStartTransfer(r, di)
		return
	}
	// No decode replica has memory: swap KV to prefill CPU memory and
	// wait (§4). The swap write must finish before the request becomes
	// admissible; the read back is paid before the transfer.
	r.stats.Swapped = true
	r.readyAt = s.now + s.cfg.CM.SwapTime(r.method, r.InputLen)
	s.swapWait = append(s.swapWait, r)
	s.probe("swap-park", r.ID, -1, 0, 0)
	s.scheduleRetries(r)
}

func (s *sim) onTransferDone(di, ver int) {
	d := s.decodes[di]
	if ver != d.linkVer {
		return // stale: link membership changed since scheduling
	}
	id, at, ok := d.link.NextCompletion()
	if !ok {
		return
	}
	if at > s.now+1e-9 {
		// Floating-point slack: re-arm at the computed time.
		s.push(&event{at: at, kind: evTransferDone, replica: di, ver: ver})
		return
	}
	if err := d.link.AdvanceTo(s.now); err != nil {
		panic(err)
	}
	r := d.inflight[id]
	if err := d.link.Finish(id); err != nil {
		panic(err)
	}
	delete(d.inflight, id)

	// Exposed communication: everything between the communication
	// span's start (prefill completion, or the eviction instant for a
	// preempted request's re-transfer) and transfer completion —
	// admission waits, swap hops, the transfer itself. Pipelined
	// transfers that finish during prefill expose nothing.
	readyAt := s.now
	if readyAt < r.prefillEnd {
		readyAt = r.prefillEnd
	}
	r.stats.Comm += readyAt - r.commMark
	s.rescheduleLink(di)
	if readyAt > s.now {
		s.push(&event{at: readyAt, kind: evReady, req: r, replica: di})
		return
	}
	s.onReady(r, di)
}

// complete finalizes a request: stamps its completion time and
// serving-latency metrics, releases its decode memory, records its
// stats and streams them to the onDone callback.
func (s *sim) complete(r *request, d *decodeReplica) {
	r.stats.Done = s.now
	if n := r.decodeTokens(); n > 0 {
		r.stats.TBT = (r.stats.Done - r.prefillEnd) / float64(n)
	}
	d.usedMem -= r.memReserve
	d.admitted--
	s.results = append(s.results, r.stats)
	s.done++
	s.probe("complete", r.ID, -1, 0, 0)
	if s.onDone != nil {
		s.onDone(r.stats)
	}
}

func (s *sim) onReady(r *request, di int) {
	d := s.decodes[di]
	s.probe("ready", r.ID, di, s.decodeOccupancy(di), s.memFrac(di))
	if r.decodeTokens() == 0 {
		// Single-token outputs finish with prefill's token.
		s.complete(r, d)
		s.retrySwapped()
		return
	}
	d.pending = append(d.pending, r)
	if !d.iterBusy {
		s.startIteration(di)
	}
}

// startIteration admits pending requests and runs one decode iteration.
// The batch may mix serving methods under SLO-aware admission.
func (s *sim) startIteration(di int) {
	d := s.decodes[di]
	if len(d.pending) > 0 {
		d.batch = append(d.batch, d.pending...)
		d.pending = nil
	}
	if len(d.batch) == 0 {
		d.iterBusy = false
		return
	}
	d.iterBusy = true
	lens := make([]int, len(d.batch))
	methods := make([]cluster.Method, len(d.batch))
	for i, r := range d.batch {
		lens[i] = r.InputLen + r.generated
		methods[i] = r.method
	}
	decode, kvMem, overhead := s.cfg.CM.DecodeStepMixed(methods, lens)
	iter := decode + kvMem + overhead
	for _, r := range d.batch {
		r.stats.Decode += decode + kvMem
		r.stats.KVMem += kvMem
		r.stats.Overhead += overhead
	}
	s.probe("iter-start", -1, di, s.decodeOccupancy(di), s.memFrac(di))
	s.push(&event{at: s.now + iter, kind: evIterDone, replica: di})
}

func (s *sim) onIterDone(di int) {
	d := s.decodes[di]
	remaining := d.batch[:0]
	freed := false
	for _, r := range d.batch {
		r.generated++
		if r.generated >= r.decodeTokens() {
			s.complete(r, d)
			freed = true
		} else {
			remaining = append(remaining, r)
		}
	}
	d.batch = remaining
	if freed {
		s.retrySwapped()
	}
	s.startIteration(di)
}

// retrySwapped re-attempts admission for requests parked in CPU memory
// whose swap write has completed, oldest first. The read back costs
// another swap hop before the transfer starts. With preemption enabled,
// a request that stays memory-starved past PreemptAfterS may evict an
// admitted victim instead of waiting further.
func (s *sim) retrySwapped() {
	var evicted []*request
	kept := s.swapWait[:0]
	for _, r := range s.swapWait {
		if s.now >= r.readyAt {
			if di, ok := s.pickDecode(r); ok {
				s.admitSwapped(r, di)
				continue
			}
			if s.cfg.Preemption && s.now >= r.readyAt+s.cfg.PreemptAfterS {
				if di, v := s.findVictim(r); v != nil {
					s.preempt(v, di)
					evicted = append(evicted, v)
					s.admitSwapped(r, di)
					continue
				}
			}
		}
		kept = append(kept, r)
	}
	s.swapWait = append(kept, evicted...)
}

// admitSwapped reserves decode memory for a parked request and starts
// its transfer after the CPU-read swap hop.
func (s *sim) admitSwapped(r *request, di int) {
	s.reserve(r, di)
	start := s.now + s.cfg.CM.SwapTime(r.method, r.InputLen+r.generated)
	s.push(&event{at: start, kind: evStartTransfer, req: r, replica: di})
}

// findVictim picks the preemption victim for a starved request: the
// never-preempted admitted request with the most remaining decode
// tokens whose eviction frees enough memory, scanning replicas in index
// order (deterministic tie-break: the first candidate found wins ties).
func (s *sim) findVictim(r *request) (int, *request) {
	need := s.cfg.CM.ResidentKVBytes(r.method, r.InputLen+r.OutputLen)
	capB := s.cfg.CM.DecodeReplicaCapacityBytes() * s.cfg.MemCapFrac
	baseMem := s.cfg.CM.DecodeMemoryBytes(s.cfg.Method, nil)
	bestDi, bestRem := -1, -1
	var best *request
	for di, d := range s.decodes {
		free := capB - baseMem - d.usedMem
		for _, set := range [2][]*request{d.batch, d.pending} {
			for _, v := range set {
				if v.stats.Preemptions > 0 || free+v.memReserve < need {
					continue
				}
				if rem := v.decodeTokens() - v.generated; rem > bestRem {
					bestDi, bestRem, best = di, rem, v
				}
			}
		}
	}
	return bestDi, best
}

// preempt evicts v from decode replica di: its KV (prompt + generated
// tokens) is swapped out to CPU memory, its decode memory and batch
// slot are released, and it re-enters the swap-wait pool to later pay
// the swap read and a full KV re-transfer before resuming. If an
// iteration is in flight the victim keeps the time already charged for
// it but loses the token — preemption wastes the aborted step.
func (s *sim) preempt(v *request, di int) {
	d := s.decodes[di]
	d.batch = removeReq(d.batch, v)
	d.pending = removeReq(d.pending, v)
	d.usedMem -= v.memReserve
	d.admitted--
	v.memReserve = 0
	v.stats.Preemptions++
	v.stats.Swapped = true
	v.commMark = s.now
	v.readyAt = s.now + s.cfg.CM.SwapTime(v.method, v.InputLen+v.generated)
	s.probe("preempt", v.ID, di, s.decodeOccupancy(di), s.memFrac(di))
	s.scheduleRetries(v)
}

// scheduleRetries guarantees a parked request is retried once its swap
// write completes, even if no decode completion happens in between —
// and, with a preemption delay configured, again the moment it becomes
// eligible to evict a victim, so the delay is honored rather than
// waiting for the next opportunistic retry.
func (s *sim) scheduleRetries(r *request) {
	s.push(&event{at: r.readyAt, kind: evRetry})
	if s.cfg.Preemption && s.cfg.PreemptAfterS > 0 {
		s.push(&event{at: r.readyAt + s.cfg.PreemptAfterS, kind: evRetry})
	}
}

// removeReq deletes r from the slice preserving order.
func removeReq(set []*request, r *request) []*request {
	for i, v := range set {
		if v == r {
			return append(set[:i], set[i+1:]...)
		}
	}
	return set
}

// noteMem records peak memory utilization.
func (s *sim) noteMem(di int) {
	if frac := s.memFrac(di); frac > s.peakMem {
		s.peakMem = frac
	}
}
