package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// RunSeconds is how long one run measures (BENCHMARK.json's
// run_seconds): three quarters paced, one quarter saturated.
const RunSeconds = 16

// Gate is one gated end-to-end metric: which way is better and by what
// share of the parent's median it may worsen. It mirrors BENCHMARK.json,
// which a test holds it to.
type Gate struct {
	Name   string
	Unit   string
	Higher bool
	Bound  float64
}

// Gates are the end-to-end metrics BENCHMARK.json gates: six of the nine
// a run reports. The driver gates a metric as a share of the parent's
// median on every workload alike, which rules out failed_share
// (everywhere) and kv_wire_bytes_per_prompt_token (off the fleet), zero
// on a healthy run, and tpot_p50_s, which on the three long-prompt
// workloads is a 2-millisecond burst of 2..29 tokens after an
// 80-millisecond prefill and repeats within 40%, not 25. Failures reach
// the driver as the result's failed/attempted counts, the wire bytes
// are the per-layer disagg.kv_wire_bytes_per_prompt_token, and
// local_chat's decode path is held by jct_p50_s and sat_tokens_per_s.
//
// The timing bounds are the widest the driver takes. On the shared
// two-core sandbox ten runs of one commit spread by 5–12% of their
// median (interquartile), quiet-quartile estimators and all; a bound is
// worth a third of what it says.
var Gates = []Gate{
	{"setup_s", "s", false, 0.25},
	{"ttft_p50_s", "s", false, 0.25},
	{"jct_p50_s", "s", false, 0.25},
	{"slo_attainment", "share", true, 0.03},
	{"sat_tokens_per_s", "1/s", true, 0.25},
	{"sat_requests_per_s", "1/s", true, 0.25},
}

// Print writes every metric as "name value unit", then the run's
// counts and, for a traced run, its stacked bars.
func (r *Result) Print(w io.Writer) {
	kind := "gated"
	if r.Traced {
		kind = "traced"
	}
	fmt.Fprintf(w, "# %s (%s run, seed %d, %g s, %d closed-loop clients, nproc %d, GOMAXPROCS %d, %s)\n",
		r.Workload, kind, r.Seed, r.Seconds, r.Clients, r.NProc, r.GOMAXPROCS, r.GoVersion)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%s %.6g %s\n", m.Name, m.Value, m.Unit)
	}
	for _, b := range r.Bars {
		b.print(w)
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Attempted, r.Failed, r.Correct)
	if r.Invalid != "" {
		fmt.Fprintf(w, "INVALID: %s\n", r.Invalid)
	}
}

// Bar is one stacked bar of a traced run: where one method's staged
// requests spent their time, as self-time shares by span name.
type Bar struct {
	Method string `json:"method"`
	// TotalS is the summed duration of the staged requests.
	TotalS float64 `json:"total_s"`
	// Stages are in pipeline order; their shares add up to one.
	Stages []BarStage `json:"stages"`
}

// BarStage is one segment of a Bar.
type BarStage struct {
	Name  string  `json:"name"`
	Share float64 `json:"share"`
}

func newBar(spans []Span, method string) Bar {
	self := SelfSeconds(spans, method)
	b := Bar{Method: method}
	for _, v := range self {
		b.TotalS += v
	}
	for _, name := range stageNames {
		if v, ok := self[name]; ok && b.TotalS > 0 {
			b.Stages = append(b.Stages, BarStage{name, v / b.TotalS})
		}
	}
	return b
}

const barWidth = 60

// print draws the bar as one line of letters, widest stages first in
// the legend.
func (b Bar) print(w io.Writer) {
	var bar, legend strings.Builder
	for i, st := range b.Stages {
		letter := byte('A' + i)
		bar.WriteString(strings.Repeat(string(letter), int(math.Round(st.Share*barWidth))))
		if st.Share >= 0.005 {
			fmt.Fprintf(&legend, " %c=%s %.1f%%", letter, st.Name, 100*st.Share)
		}
	}
	fmt.Fprintf(w, "bar %-12s %8.3fs |%s|\n   %s\n", b.Method, b.TotalS, bar.String(), legend.String())
}

// DriverLine is the one-line JSON result the benchmark driver reads:
// the gated end-to-end metrics of a gated run, every per-layer metric
// of a traced one.
func (r *Result) DriverLine() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value)
	if r.Traced {
		for _, m := range r.Metrics {
			metrics[m.Name] = value{m.Value, m.Unit}
		}
	} else {
		for _, g := range Gates {
			metrics[g.Name] = value{r.Metric(g.Name), g.Unit}
		}
	}
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, metrics})
	return string(b), err
}

// Verdict is the run's exit status: an error when a stream failed or
// differed from its reference, or when the generator ran too late for
// the numbers to be used.
func (r *Result) Verdict() error {
	if !r.Correct {
		return fmt.Errorf("%s: %d of %d requests failed (%g token mismatches)", r.Workload, r.Failed, r.Attempted, r.Metric("client.token_mismatches"))
	}
	if r.Invalid != "" {
		return fmt.Errorf("%s: run invalid: %s", r.Workload, r.Invalid)
	}
	return nil
}

// WriteJSON writes v, indented, creating the directory.
func WriteJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// Report is the full set: every workload's gated and traced result.
type Report struct {
	Seed       int64     `json:"seed"`
	Seconds    float64   `json:"seconds"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	Results    []*Result `json:"results"`
}

// NewReport starts a report for this host.
func NewReport(seed int64, seconds float64) *Report {
	return &Report{Seed: seed, Seconds: seconds, NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
}

// Print writes every result.
func (rep *Report) Print(w io.Writer) {
	for _, r := range rep.Results {
		r.Print(w)
		fmt.Fprintln(w)
	}
}

// Write stores the report as JSON.
func (rep *Report) Write(path string) error { return WriteJSON(path, rep) }

// Verdict is the first failing result's verdict.
func (rep *Report) Verdict() error {
	for _, r := range rep.Results {
		if err := r.Verdict(); err != nil {
			return err
		}
	}
	return nil
}

// gated returns the workload's gated result.
func (rep *Report) gated(workload string) *Result {
	for _, r := range rep.Results {
		if r.Workload == workload && !r.Traced {
			return r
		}
	}
	return nil
}

// exactMetrics are counts that must repeat exactly between two runs of
// one commit, whatever the machine's mood.
var exactMetrics = []string{
	"disagg.kv_wire_bytes_per_prompt_token", "disagg.wire_crossings",
	"attention.hack.decode_ops", "attention.kvquant.decode_ops", "attention.fp16.decode_ops",
}

// Agreement prints, per workload and gated metric, how far the second
// full set is from the first against the metric's bound (in the
// direction that counts as worse), and checks that the exact counts
// repeat. It returns an error on any breach.
func Agreement(w io.Writer, a, b *Report) error {
	var breaches []string
	fmt.Fprintf(w, "%-20s %-20s %12s %12s %9s %7s\n", "workload", "metric", "first", "second", "worse by", "bound")
	for _, wl := range Workloads {
		ra, rb := a.gated(wl.Name), b.gated(wl.Name)
		if ra == nil || rb == nil {
			return fmt.Errorf("bench: no gated result for %s", wl.Name)
		}
		for _, g := range Gates {
			va, vb := ra.Metric(g.Name), rb.Metric(g.Name)
			worse := (vb - va) / va
			if g.Higher {
				worse = -worse
			}
			mark := ""
			if worse > g.Bound || math.IsNaN(worse) {
				mark = "  BREACH"
				breaches = append(breaches, wl.Name+"/"+g.Name)
			}
			fmt.Fprintf(w, "%-20s %-20s %12.6g %12.6g %+8.1f%% %6.0f%%%s\n", wl.Name, g.Name, va, vb, 100*worse, 100*g.Bound, mark)
		}
	}
	for _, ta := range a.Results {
		if !ta.Traced {
			continue
		}
		for _, tb := range b.Results {
			if !tb.Traced || tb.Workload != ta.Workload {
				continue
			}
			for _, name := range exactMetrics {
				va, vb := ta.Metric(name), tb.Metric(name)
				mark := "repeats exactly"
				if va != vb {
					mark = "DIFFERS"
					breaches = append(breaches, ta.Workload+"/"+name)
				}
				fmt.Fprintf(w, "%-20s %-40s %12.6g %12.6g  %s\n", ta.Workload, name, va, vb, mark)
			}
		}
	}
	if len(breaches) > 0 {
		return fmt.Errorf("bench: two runs of one commit disagree on %v", breaches)
	}
	return nil
}
