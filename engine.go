package hack

import (
	"context"
	"fmt"
	"io"

	"github.com/hackkv/hack/internal/attention"
	"github.com/hackkv/hack/internal/cluster"
	"github.com/hackkv/hack/internal/model"
	"github.com/hackkv/hack/internal/sim"
	"github.com/hackkv/hack/internal/workload"
)

// Serving-simulation types re-exported from the internal packages. The
// aliases carry every exported method and field, so a Result supports
// AvgJCT / P50JCT / P99JCT / AvgTimes / AvgRatios exactly as documented
// on the internal types.
type (
	// Method is a serving-method profile: how KV is represented on the
	// wire and in cache, and which per-iteration overhead
	// (dequantization vs the Eq. (4) approximation) the method pays.
	Method = cluster.Method
	// Instance is one cloud GPU instance type (Table 2).
	Instance = cluster.Instance
	// ModelSpec is a transformer architecture from the paper's catalog.
	ModelSpec = model.Spec
	// CostParams are the calibration knobs of the analytic performance
	// model.
	CostParams = cluster.CostParams
	// Dataset is one evaluation workload (a Table 4 row).
	Dataset = workload.Dataset
	// Request is one inference job in a trace.
	Request = workload.Request
	// RequestStats is one simulated request's JCT decomposition.
	RequestStats = sim.RequestStats
	// Result aggregates one simulation run.
	Result = sim.Result
	// Scheduler selects the prefill request-placement policy.
	Scheduler = sim.Scheduler
	// SLO is a pair of serving targets: time to first token and mean
	// time between subsequent tokens, in seconds. Zero fields are
	// untracked.
	SLO = sim.SLO
	// Summary aggregates one run's serving metrics: throughput, JCT /
	// TTFT / TBT / queueing percentile summaries, SLO attainment, swap
	// and preemption counters, peak decode memory.
	Summary = sim.Summary
	// ProbeEvent is one observable simulator transition, delivered to
	// the WithProbe callback in simulation order.
	ProbeEvent = sim.ProbeEvent
)

// Prefill scheduling policies.
const (
	// ShortestQueue assigns each arrival to the prefill replica with the
	// fewest queued tokens — the paper's policy (§7.1).
	ShortestQueue = sim.ShortestQueue
	// RoundRobin cycles through replicas regardless of load.
	RoundRobin = sim.RoundRobin
	// FewestRequests assigns to the replica with the fewest queued
	// requests, ignoring their lengths.
	FewestRequests = sim.FewestRequests
	// LoadAware scores replicas by estimated prefill drain time plus
	// pending-KV transfer time and routes to the lowest score
	// (FlowKV-style load-aware routing).
	LoadAware = sim.LoadAware
	// SLOAware places like LoadAware and picks each request's
	// compression method so its estimated TTFT/TBT meet the engine's
	// SLO targets (KVServe-style service-aware admission; see
	// WithSLO and WithAdmitMethods).
	SLOAware = sim.SLOAware
)

// DefaultCostParams returns the calibrated cost-model defaults.
func DefaultCostParams() CostParams { return cluster.DefaultCostParams() }

// Workload describes the request trace an Engine run serves. Either set
// Trace to replay explicit requests, or leave it nil to generate a
// deterministic Poisson trace: Dataset names a registry entry whose
// length distributions are sampled (capped to the engine model's context
// window), RPS is the arrival rate, Requests the trace length, and Seed
// fixes all randomness.
type Workload struct {
	Dataset  string
	RPS      float64
	Requests int
	Seed     int64
	// Trace, when non-nil, is replayed as-is and the generation fields
	// above are ignored.
	Trace []Request
}

// Engine is the configured serving system: a model, a prefill and a
// decode instance pool, a serving method, and the simulator parameters.
// Build one with New and functional options; the zero value is not
// usable.
type Engine struct {
	spec    ModelSpec
	prefill Instance
	decode  Instance
	method  Method
	params  CostParams

	prefillN, decodeN int
	maxBatch          int
	memCapFrac        float64
	pipeline          bool
	scheduler         Scheduler
	stream            func(RequestStats)
	kernelPar         int
	slo               SLO
	prefillChunk      int
	preemption        bool
	admitMethods      []Method
	probe             func(ProbeEvent)
	serveCfg          ServeConfig
	prefixBytes       int64
	role              Role
	peerPrefills      []string
	peerDecodes       []string
	disaggCfg         DisaggConfig

	cm *cluster.CostModel
}

// Option configures an Engine under construction. Options that resolve
// names report unknown-name errors (listing the valid spellings) from
// New.
type Option func(*Engine) error

// New builds an Engine from the defaults — Llama-3.1 70B on an A10G
// prefill pool and A100 decode pool serving HACK with 5 prefill and 4
// decode replicas — overridden by the given options, and validates the
// resulting deployment against the paper's Table 3 parallelism catalog.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{
		spec:       model.Llama70B(),
		prefill:    cluster.A10G(),
		decode:     cluster.A100(),
		method:     cluster.DefaultHACK(),
		params:     cluster.DefaultCostParams(),
		prefillN:   5,
		decodeN:    4,
		maxBatch:   256,
		memCapFrac: 0.95,
		scheduler:  ShortestQueue,
		role:       RoleLocal,
	}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, fmt.Errorf("hack: %w", err)
		}
	}
	cm, err := cluster.NewCostModel(e.spec, e.prefill, e.decode, e.params)
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	e.cm = cm
	return e, nil
}

// WithModel selects the served model by catalog tag or full name
// (M, P, Y, L, F — see Models).
func WithModel(name string) Option {
	return func(e *Engine) error {
		spec, err := model.Registry.Lookup(name)
		if err != nil {
			return err
		}
		e.spec = spec
		return nil
	}
}

// WithModelSpec serves a custom architecture. Models outside the paper's
// catalog need a Table 3 parallelism entry for the selected GPUs; New
// reports an error otherwise.
func WithModelSpec(spec ModelSpec) Option {
	return func(e *Engine) error {
		e.spec = spec
		return nil
	}
}

// WithGPU selects the prefill instance pool by accelerator tag (see
// GPUs).
func WithGPU(name string) Option {
	return func(e *Engine) error {
		in, err := cluster.GPURegistry.Lookup(name)
		if err != nil {
			return err
		}
		e.prefill = in
		return nil
	}
}

// WithDecodeGPU selects the decode instance pool by accelerator tag; the
// default is the paper's A100 decode side.
func WithDecodeGPU(name string) Option {
	return func(e *Engine) error {
		in, err := cluster.GPURegistry.Lookup(name)
		if err != nil {
			return err
		}
		e.decode = in
		return nil
	}
}

// WithMethod selects the serving method by registry name (see Methods).
func WithMethod(name string) Option {
	return func(e *Engine) error {
		m, err := cluster.MethodRegistry.Lookup(name)
		if err != nil {
			return err
		}
		e.method = m
		return nil
	}
}

// WithMethodProfile serves a custom method profile, e.g. a HACK variant
// with a non-catalog partition size.
func WithMethodProfile(m Method) Option {
	return func(e *Engine) error {
		e.method = m
		return nil
	}
}

// WithReplicas sets the prefill and decode replica counts.
func WithReplicas(prefill, decode int) Option {
	return func(e *Engine) error {
		if prefill <= 0 || decode <= 0 {
			return fmt.Errorf("replicas %d/%d must be positive", prefill, decode)
		}
		e.prefillN, e.decodeN = prefill, decode
		return nil
	}
}

// WithPipeline toggles overlapping KV transfer with prefill computation
// (§2.1).
func WithPipeline(on bool) Option {
	return func(e *Engine) error {
		e.pipeline = on
		return nil
	}
}

// WithMaxBatch caps a decode replica's concurrent batch.
func WithMaxBatch(n int) Option {
	return func(e *Engine) error {
		if n <= 0 {
			return fmt.Errorf("max batch %d must be positive", n)
		}
		e.maxBatch = n
		return nil
	}
}

// WithMemCapFrac sets the usable fraction of decode replica memory.
func WithMemCapFrac(frac float64) Option {
	return func(e *Engine) error {
		if frac <= 0 || frac > 1 {
			return fmt.Errorf("mem cap fraction %v outside (0, 1]", frac)
		}
		e.memCapFrac = frac
		return nil
	}
}

// WithScheduler selects the simulator's prefill request-placement
// policy: how Run, Serve and RunSweep place requests across prefill
// replicas. It does not touch the live runtime, whose prefill workers
// share one FIFO admission queue.
func WithScheduler(s Scheduler) Option {
	return func(e *Engine) error {
		e.scheduler = s
		return nil
	}
}

// WithSLO sets the serving targets in seconds: ttft bounds the time to
// first token, tbt the mean time between subsequent tokens. Zero
// disables a target. The SLOAware scheduler admits against these, and
// Serve reports attainment against them.
func WithSLO(ttft, tbt float64) Option {
	return func(e *Engine) error {
		if ttft < 0 || tbt < 0 {
			return fmt.Errorf("SLO targets %v/%v must be >= 0", ttft, tbt)
		}
		e.slo = SLO{TTFT: ttft, TBT: tbt}
		return nil
	}
}

// WithPrefillChunk splits prompts into prefill passes of at most n
// tokens, with the replica round-robining across its queue between
// passes so short prompts are not head-of-line blocked behind long
// ones. 0 (the default) prefills whole prompts.
func WithPrefillChunk(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("prefill chunk %d must be >= 0", n)
		}
		e.prefillChunk = n
		return nil
	}
}

// WithPreemption lets a memory-starved request evict the admitted
// request with the most remaining decode work (at most once per
// victim); the victim's KV is swapped out and re-transferred before it
// resumes.
func WithPreemption(on bool) Option {
	return func(e *Engine) error {
		e.preemption = on
		return nil
	}
}

// WithProbe registers an observer for simulator transitions (arrivals,
// prefill passes, transfers, decode iterations, preemptions,
// completions), invoked synchronously in simulation order during Run.
// It must not mutate engine or simulator state; it never affects
// results.
func WithProbe(fn func(ProbeEvent)) Option {
	return func(e *Engine) error {
		e.probe = fn
		return nil
	}
}

// WithAdmitMethods names the fidelity-ordered compression classes the
// SLOAware scheduler picks from, highest fidelity first (default:
// Baseline, then the engine's method). Unknown names error from New
// with the valid spellings.
func WithAdmitMethods(names ...string) Option {
	return func(e *Engine) error {
		ms := make([]Method, 0, len(names))
		for _, name := range names {
			m, err := cluster.MethodRegistry.Lookup(name)
			if err != nil {
				return err
			}
			ms = append(ms, m)
		}
		e.admitMethods = ms
		return nil
	}
}

// WithCostParams overrides the calibrated cost-model parameters.
func WithCostParams(p CostParams) Option {
	return func(e *Engine) error {
		e.params = p
		return nil
	}
}

// WithStream registers a per-request streaming callback: Run invokes it
// with each request's stats the moment the request completes, in
// completion order, before returning the aggregate Result.
func WithStream(fn func(RequestStats)) Option {
	return func(e *Engine) error {
		e.stream = fn
		return nil
	}
}

// WithKernelParallelism bounds the worker goroutines HACK attention may
// use, in the served runtime and in toolkit components derived from
// this engine (see Engine.HACKAttentionConfig): 0 sizes like the sweep
// pool (one worker per CPU), 1 forces the serial path. A prefill longer
// than 64 tokens fans out over 64-row query tiles, each running its
// kernels serially; a decode step or a shorter prefill passes the bound
// to its homomorphic products, which split their output columns
// (MatMulOptions.Parallelism). Numeric outputs are bit-identical at
// every setting; only throughput changes.
func WithKernelParallelism(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("kernel parallelism %d must be >= 0", n)
		}
		e.kernelPar = n
		return nil
	}
}

// KernelParallelism returns the engine's numeric-kernel parallelism
// bound (0 = auto).
func (e *Engine) KernelParallelism() int { return e.kernelPar }

// HACKAttentionConfig derives the numeric attention configuration
// matching the engine's serving method — partition size Π and the SE /
// RQE toggles from the method profile, the paper's INT8 Q/P + INT2 KV
// widths, stochastic rounding from the given seed — with the engine's
// kernel-parallelism knob threaded through. It reports an error when
// the engine serves a non-homomorphic method, which has no HACK numeric
// counterpart.
func (e *Engine) HACKAttentionConfig(seed int64) (HACKAttentionConfig, error) {
	if !e.method.Homomorphic {
		return HACKAttentionConfig{}, fmt.Errorf("hack: method %q is not homomorphic", e.method.Name)
	}
	cfg := attention.DefaultHACKConfig(seed)
	if e.method.Pi > 0 {
		cfg.Pi = e.method.Pi
	}
	cfg.SummationElimination = e.method.SE
	cfg.RequantizationElimination = e.method.RQE
	cfg.Parallelism = e.kernelPar
	return cfg, nil
}

// Model returns the engine's model architecture.
func (e *Engine) Model() ModelSpec { return e.spec }

// Method returns the engine's serving-method profile.
func (e *Engine) Method() Method { return e.method }

// String summarizes the deployment.
func (e *Engine) String() string {
	return fmt.Sprintf("%s | %s | %d prefill x %d decode replicas",
		e.cm, e.method.Name, e.prefillN, e.decodeN)
}

// Trace materializes the workload's request trace: the explicit Trace if
// set, otherwise a deterministic Poisson trace drawn from the named
// dataset with its input lengths capped to the engine model's context
// window.
func (e *Engine) Trace(w Workload) ([]Request, error) {
	if w.Trace != nil {
		return w.Trace, nil
	}
	ds, err := workload.Registry.Lookup(w.Dataset)
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	reqs, err := workload.Trace(ds.CappedTo(e.spec.MaxContext), w.RPS, w.Requests, w.Seed)
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	return reqs, nil
}

// Run simulates serving the workload on the configured deployment. It
// honors ctx cancellation between simulator events and streams each
// completed request's stats to the WithStream callback. The Result is
// identical to driving the internal simulator directly with the same
// configuration and trace.
func (e *Engine) Run(ctx context.Context, w Workload) (*Result, error) {
	reqs, err := e.Trace(w)
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, sim.Config{
		CM:              e.cm,
		Method:          e.method,
		PrefillReplicas: e.prefillN,
		DecodeReplicas:  e.decodeN,
		MaxBatch:        e.maxBatch,
		MemCapFrac:      e.memCapFrac,
		Pipeline:        e.pipeline,
		Scheduler:       e.scheduler,
		PrefillChunk:    e.prefillChunk,
		Preemption:      e.preemption,
		SLOTTFT:         e.slo.TTFT,
		SLOTBT:          e.slo.TBT,
		MethodClasses:   e.admitMethods,
		Probe:           e.probe,
	}, reqs, e.stream)
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	return res, nil
}

// SLO returns the engine's serving targets (zero fields untracked).
func (e *Engine) SLO() SLO { return e.slo }

// ServeReport is Serve's product: the deployment, the SLO it was judged
// against, and the run's serving summary (throughput, latency
// percentiles, attainment).
type ServeReport struct {
	Deployment string  `json:"deployment"`
	Scheduler  string  `json:"scheduler"`
	Dataset    string  `json:"dataset,omitempty"`
	SLO        SLO     `json:"slo"`
	Summary    Summary `json:"summary"`
}

// Serve runs the workload and summarizes it against the engine's SLO
// (set with WithSLO): the ServeReport carries TTFT/TBT/JCT/queueing
// percentiles, throughput, and the attainment fractions. Use Run when
// the per-request decompositions are needed instead.
func (e *Engine) Serve(ctx context.Context, w Workload) (*ServeReport, error) {
	res, err := e.Run(ctx, w)
	if err != nil {
		return nil, err
	}
	return &ServeReport{
		Deployment: e.String(),
		Scheduler:  e.scheduler.String(),
		Dataset:    w.Dataset,
		SLO:        e.slo,
		Summary:    res.Summarize(e.slo),
	}, nil
}

// GenerateTrace draws a deterministic Poisson trace from a named dataset
// without capping to any model's context window. Engines cap at Run time
// instead; use Engine.Trace for a trace sized to a deployment.
func GenerateTrace(dataset string, rps float64, n int, seed int64) ([]Request, error) {
	ds, err := workload.Registry.Lookup(dataset)
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	reqs, err := workload.Trace(ds, rps, n, seed)
	if err != nil {
		return nil, fmt.Errorf("hack: %w", err)
	}
	return reqs, nil
}

// SaveTrace writes a trace as JSON for later replay with LoadTrace.
func SaveTrace(w io.Writer, dataset string, rps float64, seed int64, reqs []Request) error {
	return workload.SaveTrace(w, dataset, rps, seed, reqs)
}

// LoadTrace reads a trace written by SaveTrace.
func LoadTrace(r io.Reader) ([]Request, error) { return workload.LoadTrace(r) }

// MeanInputLen returns the average prompt length of a trace.
func MeanInputLen(reqs []Request) float64 { return workload.MeanInputLen(reqs) }
