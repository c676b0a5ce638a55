package bench

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"time"
)

// Metric is one reported number.
type Metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports.
type Result struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Traced   bool    `json:"traced"`
	// Clients is the closed loop's caller count.
	Clients    int    `json:"clients"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Attempted and Failed count requests over both phases; Correct is
	// Failed == 0.
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	// Invalid says why the run's numbers must not be used ("" if they
	// may): the generator ran too late.
	Invalid string   `json:"invalid,omitempty"`
	Metrics []Metric `json:"metrics"`
	// Bars are a traced run's stacked bars, one per staged method.
	Bars []Bar `json:"bars,omitempty"`
}

func (r *Result) add(name string, value float64, unit string) {
	r.Metrics = append(r.Metrics, Metric{name, value, unit})
}

// Metric returns the named metric's value (NaN if absent).
func (r *Result) Metric(name string) float64 {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m.Value
		}
	}
	return math.NaN()
}

// Phase shares of a run's measured seconds: the paced open loop, then
// the saturated closed loop.
const (
	pacedShare     = 0.75
	saturatedShare = 0.25
	// setups is how many times a gated run builds and warms the
	// deployment; setup_s is their median.
	setups = 3
	// A run is invalid when the generator's median lateness exceeds
	// maxLagShare of ttft_p50_s, or its p90 lateness maxLagShareP90 of
	// it. The gated metrics are medians, and a request is timed from
	// its due time, so lateness enters them through its own median
	// (about 15 µs); the p90 (0.1–0.6 ms) and the p99 (2–4 ms, a time
	// slice spent waiting behind a server thread) are the operating
	// system's on a two-core host, and the looser p90 limit is there to
	// catch a generator that is broken, not one that is unlucky.
	maxLagShare    = 0.05
	maxLagShareP90 = 0.25
)

func newResult(w Workload, seed int64, seconds float64, traced bool) *Result {
	return &Result{
		Workload: w.Name, Seed: seed, Seconds: seconds, Traced: traced,
		Clients: runtime.NumCPU(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
	}
}

// setup builds the workload's deployment and answers the warm-up
// requests; it returns the deployment and the time it took.
func setup(ctx context.Context, w Workload, seed int64, since time.Time) (*Deployment, float64, error) {
	d, err := Deploy(ctx, w)
	if err != nil {
		return nil, 0, err
	}
	_, res, err := drive(ctx, w, phaseSpec{URL: d.URL, Seed: seed, Section: SectionWarmup,
		N: WarmupRequests, Clients: runtime.NumCPU(), Seconds: 3600})
	if err == nil {
		for _, s := range res.Samples {
			if s.Err != "" || s.Tokens() != s.req.MaxTokens {
				err = fmt.Errorf("bench: warm-up request %d failed: %d of %d tokens %s", s.Index, s.Tokens(), s.req.MaxTokens, s.Err)
				break
			}
		}
	}
	if err != nil {
		d.Close()
		return nil, 0, err
	}
	return d, time.Since(since).Seconds(), nil
}

// loadRun is the paced and saturated phases of one deployment, checked
// against the reference streams.
type loadRun struct {
	paced, sat       []*Sample
	pacedBad, satBad []bool
	satWindow        float64
	mismatches       int
	// linkBytes is the router's KV link bytes over the paced phase.
	linkBytes int64
}

func (l *loadRun) attempted() int { return len(l.paced) + len(l.sat) }

func (l *loadRun) failed() int {
	n := 0
	for _, bad := range [][]bool{l.pacedBad, l.satBad} {
		for _, b := range bad {
			if b {
				n++
			}
		}
	}
	return n
}

// runLoad drives the two phases against d. The references are computed
// by check, after the deployment is closed.
func runLoad(ctx context.Context, w Workload, seed int64, d *Deployment, pacedS, satS float64) (*loadRun, error) {
	l := &loadRun{}
	before := d.LinkKVBytes()
	_, res, err := drive(ctx, w, phaseSpec{URL: d.URL, Seed: seed, Section: SectionPaced,
		N: int(math.Round(w.RateRPS * pacedS)), PacedSeconds: pacedS})
	if err != nil {
		return nil, err
	}
	l.paced = res.Samples
	l.linkBytes = d.LinkKVBytes() - before
	// The closed loop runs at about twice the paced rate; six times
	// leaves room for a program three times faster.
	_, res, err = drive(ctx, w, phaseSpec{URL: d.URL, Seed: seed, Section: SectionSaturated,
		N: int(math.Ceil(6*w.RateRPS*satS)) + 2*strata, Clients: runtime.NumCPU(), Seconds: satS})
	if err != nil {
		return nil, err
	}
	l.sat, l.satWindow = res.Samples, res.Window
	return l, nil
}

// check computes the references and marks each sample failed or not.
func (l *loadRun) check(ctx context.Context, w Workload) error {
	all := append(append([]*Sample(nil), l.paced...), l.sat...)
	refs, err := References(ctx, w, all)
	if err != nil {
		return err
	}
	bad := make([]bool, len(all))
	for i, s := range all {
		ids := s.IDs()
		bad[i] = s.Failed(ids, refs[i])
		if bad[i] && s.Err == "" && len(ids) == len(refs[i]) {
			l.mismatches++
		}
	}
	l.pacedBad, l.satBad = bad[:len(l.paced)], bad[len(l.paced):]
	return nil
}

// endToEnd appends the nine end-to-end metrics.
func (l *loadRun) endToEnd(r *Result, w Workload, setupS float64) {
	r.add("setup_s", setupS, "s")
	r.add("ttft_p50_s", quietRoundMedian(l.paced, l.pacedBad, func(s *Sample) float64 { return s.TTFTS }), "s")
	r.add("tpot_p50_s", quietRoundMedian(l.paced, l.pacedBad, (*Sample).TPOTS), "s")
	r.add("jct_p50_s", quietRoundMedian(l.paced, l.pacedBad, func(s *Sample) float64 { return s.JCTS }), "s")
	r.add("slo_attainment", SLOAttainment(l.paced, l.pacedBad, w.TTFTLimitS, w.TPOTLimitS), "share")
	r.add("failed_share", FailedShare(l.failed(), l.attempted()), "share")
	tps, rps := quietSliceThroughput(l.sat, l.satBad, l.satWindow)
	r.add("sat_tokens_per_s", tps, "1/s")
	r.add("sat_requests_per_s", rps, "1/s")
	r.add("kv_wire_bytes_per_prompt_token", l.kvWireBytesPerPromptToken(), "B")
}

// kvWireBytesPerPromptToken is the router's KV link bytes over the
// prompt tokens served, both over the paced phase, whose request set is
// fixed: 0 on a local role.
func (l *loadRun) kvWireBytesPerPromptToken() float64 {
	var promptTokens int
	for i, s := range l.paced {
		if !l.pacedBad[i] {
			promptTokens += len(s.req.Prompt)
		}
	}
	if promptTokens == 0 {
		return 0
	}
	return float64(l.linkBytes) / float64(promptTokens)
}

// clientMetrics appends the harness's own diagnostics.
func (l *loadRun) clientMetrics(r *Result) {
	lag := make([]float64, len(l.paced))
	for i, s := range l.paced {
		lag[i] = s.LagS * 1e3
	}
	r.add("client.sched_lag_p50_ms", Median(lag), "ms")
	r.add("client.sched_lag_p90_ms", Quantile(lag, 0.90), "ms")
	r.add("client.sched_lag_p99_ms", Quantile(lag, 0.99), "ms")
	r.add("client.ttft_p90_s", Quantile(latencies(l.paced, l.pacedBad, func(s *Sample) float64 { return s.TTFTS }), 0.90), "s")
	r.add("client.tpot_p90_s", Quantile(latencies(l.paced, l.pacedBad, (*Sample).TPOTS), 0.90), "s")
	r.add("client.jct_p90_s", Quantile(latencies(l.paced, l.pacedBad, func(s *Sample) float64 { return s.JCTS }), 0.90), "s")
	r.add("client.tbt_p99_s", Quantile(tokenGaps(l.paced, l.pacedBad), 0.99), "s")
	r.add("client.sent", float64(l.attempted()), "count")
	r.add("client.succeeded", float64(l.attempted()-l.failed()), "count")
	r.add("client.failed", float64(l.failed()), "count")
	r.add("client.token_mismatches", float64(l.mismatches), "count")
}

// counts fills in the result's request counts.
func (l *loadRun) counts(r *Result) {
	r.Attempted, r.Failed = l.attempted(), l.failed()
	r.Correct = r.Failed == 0
}

// RunGated is the gated run: set up (three times, reporting the
// median), the paced phase, the saturated phase, then the references.
// It carries no spans. processStart is when the process began, so the
// first set-up includes start-up.
func RunGated(ctx context.Context, w Workload, seed int64, seconds float64, processStart time.Time) (*Result, error) {
	stop, err := keepAwake()
	if err != nil {
		return nil, err
	}
	defer stop()
	r := newResult(w, seed, seconds, false)
	var d *Deployment
	setupS := make([]float64, setups)
	since := processStart
	for i := range setupS {
		if d != nil {
			d.Close()
			since = time.Now()
		}
		if d, setupS[i], err = setup(ctx, w, seed, since); err != nil {
			return nil, err
		}
	}
	l, err := runLoad(ctx, w, seed, d, pacedShare*seconds, saturatedShare*seconds)
	d.Close()
	if err != nil {
		return nil, err
	}
	if err := l.check(ctx, w); err != nil {
		return nil, err
	}
	l.endToEnd(r, w, Median(setupS))
	l.clientMetrics(r)
	r.add("proc.peak_rss_mb", peakRSSMB(), "MB")
	l.counts(r)
	ttft := r.Metric("ttft_p50_s")
	for _, limit := range []struct {
		name  string
		share float64
	}{{"p50", maxLagShare}, {"p90", maxLagShareP90}} {
		if lag := r.Metric("client.sched_lag_"+limit.name+"_ms") / 1e3; lag > limit.share*ttft {
			r.Invalid = fmt.Sprintf("generator %s lateness %.3f ms exceeds %.0f%% of ttft_p50_s (%.3f ms)",
				limit.name, lag*1e3, limit.share*100, ttft*1e3)
			break
		}
	}
	return r, nil
}
