package bench

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"net"
	"os"
	"reflect"
	"sort"
	"testing"
	"time"
)

// The load client is this test binary re-executed (see ClientMain).
func TestMain(m *testing.M) {
	ClientMain()
	os.Exit(m.Run())
}

func trace(t *testing.T, w Workload, seed int64, section int, pacedSeconds float64) []Request {
	t.Helper()
	reqs, err := BuildTrace(w, seed, section, 96, pacedSeconds)
	if err != nil {
		t.Fatal(err)
	}
	return reqs
}

func TestTraceIsAFunctionOfWorkloadAndSeed(t *testing.T) {
	for _, w := range Workloads {
		a, err := json.Marshal(trace(t, w, 7, SectionPaced, 8))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(trace(t, w, 7, SectionPaced, 8))
		if string(a) != string(b) {
			t.Errorf("%s: two traces of one seed differ", w.Name)
		}
		c, _ := json.Marshal(trace(t, w, 8, SectionPaced, 8))
		if string(a) == string(c) {
			t.Errorf("%s: seeds 7 and 8 give the same trace", w.Name)
		}
		d, _ := json.Marshal(trace(t, w, 7, SectionSaturated, 0))
		if string(a) == string(d) {
			t.Errorf("%s: the paced and saturated sections are the same", w.Name)
		}
	}
}

// lengths returns a trace's sorted prompt and output lengths.
func lengths(reqs []Request) (prompts, outputs []int) {
	for _, r := range reqs {
		prompts, outputs = append(prompts, len(r.Prompt)), append(outputs, r.MaxTokens)
	}
	sort.Ints(prompts)
	sort.Ints(outputs)
	return prompts, outputs
}

func TestSeedOrdersTheSameLengths(t *testing.T) {
	for _, w := range Workloads {
		p1, o1 := lengths(trace(t, w, 1, SectionPaced, 8))
		p2, o2 := lengths(trace(t, w, 2, SectionPaced, 8))
		if !reflect.DeepEqual(p1, p2) || !reflect.DeepEqual(o1, o2) {
			t.Errorf("%s: seeds 1 and 2 draw different length sets", w.Name)
		}
		lo, hi := w.Prompt.Min, w.Prompt.Max
		if w.Prefix {
			lo, hi = lo+PrefixTokens, hi+PrefixTokens
		}
		if p1[0] < lo || p1[len(p1)-1] > hi {
			t.Errorf("%s: prompt lengths [%d, %d] outside [%d, %d]", w.Name, p1[0], p1[len(p1)-1], lo, hi)
		}
		// Every run of `strata` requests spans the distribution: its mean
		// stays near the whole trace's.
		reqs := trace(t, w, 3, SectionSaturated, 0)
		var total float64
		for _, r := range reqs {
			total += float64(len(r.Prompt))
		}
		mean := total / float64(len(reqs))
		for i := 0; i+strata <= len(reqs); i += strata {
			var s float64
			for _, r := range reqs[i : i+strata] {
				s += float64(len(r.Prompt))
			}
			if got := s / strata; math.Abs(got-mean) > 0.15*mean {
				t.Errorf("%s: requests %d..%d average %.0f prompt tokens, the trace %.0f", w.Name, i, i+strata, got, mean)
			}
		}
	}
}

func TestPacedArrivalsFillTheWindow(t *testing.T) {
	w := Workloads[0]
	reqs := trace(t, w, 5, SectionPaced, 8)
	for i := 1; i < len(reqs); i++ {
		if reqs[i].DueS < reqs[i-1].DueS {
			t.Fatalf("arrival %d before arrival %d", i, i-1)
		}
	}
	if last := reqs[len(reqs)-1].DueS; last <= 4 || last >= 8 {
		t.Errorf("last of %d arrivals at %.2f s of an 8 s window", len(reqs), last)
	}
}

func TestPrefixWorkloadSharesWhatItSays(t *testing.T) {
	w, err := WorkloadNamed("local_prefix_shared")
	if err != nil {
		t.Fatal(err)
	}
	reqs := trace(t, w, 1, SectionPaced, 8)
	pool, _, err := lengthPool(w)
	if err != nil {
		t.Fatal(err)
	}
	var meanSuffix float64
	for _, n := range pool {
		meanSuffix += float64(n) / float64(len(pool))
	}
	// Measure it: group by the first PrefixTokens tokens.
	groups := make(map[string]int)
	seeds := make(map[string]int64)
	for _, r := range reqs {
		key, _ := json.Marshal(r.Prompt[:PrefixTokens])
		groups[string(key)]++
		if s, ok := seeds[string(key)]; ok && s != r.Seed {
			t.Fatalf("requests of one prefix carry quantizer seeds %d and %d", s, r.Seed)
		}
		seeds[string(key)] = r.Seed
	}
	if len(groups) != PrefixCount {
		t.Fatalf("%d distinct prefixes, want %d", len(groups), PrefixCount)
	}
	// Every request's first PrefixTokens tokens are one of the 16.
	want := PrefixTokens / (PrefixTokens + meanSuffix)
	if got := float64(len(reqs)*PrefixTokens) / float64(PromptTokens(reqs)); math.Abs(got-want) > 0.01 {
		t.Errorf("shared-token share %.3f, the spec says %.3f", got, want)
	}
	var counts []int
	for _, c := range groups {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	// Zipf s=1 over 16: the most popular prefix takes 1/H(16) = 29.6%.
	if got := float64(counts[0]) / float64(len(reqs)); math.Abs(got-0.296) > 0.02 {
		t.Errorf("most popular prefix takes %.3f of the requests, want 0.296", got)
	}
}

// transferSeconds times n bytes written into one end of a proxied
// connection until the other end has read them all.
func transferSeconds(t *testing.T, from, to net.Conn, n int) float64 {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := io.CopyN(io.Discard, to, int64(n))
		done <- err
	}()
	start := time.Now()
	if _, err := from.Write(make([]byte, n)); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	return time.Since(start).Seconds()
}

func TestShapedProxyPacesBothDirections(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	const rate, n = 3e6, 900_000
	p, err := NewShapedProxy(ln.Addr().String(), rate)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	client, err := net.Dial("tcp", p.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	node := <-accepted
	defer node.Close()

	want := n / rate
	for _, dir := range []struct {
		name     string
		from, to net.Conn
	}{{"toward the node", client, node}, {"back from the node", node, client}} {
		// The lower bound is the pacer's to keep; the upper one also needs
		// the machine's attention, so a busy test host gets three tries.
		var got float64
		for try := 0; try < 3; try++ {
			if got = transferSeconds(t, dir.from, dir.to, n); got < 0.9*want {
				t.Fatalf("%s: %d bytes in %.3f s, faster than %.0f B/s allows (%.3f s)", dir.name, n, got, rate, want)
			}
			if got <= 1.1*want {
				break
			}
		}
		if got > 1.1*want {
			t.Errorf("%s: %d bytes took %.3f s, want %.3f s ± 10%%", dir.name, n, got, want)
		}
	}
	in, out := p.Bytes()
	if in < n || out < n {
		t.Errorf("proxy counted %d bytes in and %d out, want at least %d each", in, out, n)
	}
}

func TestArithmetic(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := Quantile(xs, c.p); got != c.want {
			t.Errorf("Quantile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile of nothing = %g", got)
	}

	req := &Request{MaxTokens: 3}
	sample := func(ttft, jct float64, tokenEnds ...float64) *Sample {
		return &Sample{req: req, TTFTS: ttft, JCTS: jct, EndS: jct, TokenEndsS: tokenEnds}
	}
	samples := []*Sample{
		sample(0.1, 0.3, 0.1, 0.2, 0.3), // tpot 0.1: meets 0.2 / 0.15
		sample(0.3, 0.5, 0.3, 0.4, 0.5), // misses the TTFT limit
		sample(0.1, 0.7, 0.1, 0.4, 0.7), // tpot 0.3: misses the TPOT limit
		sample(0.1, 0.3, 0.1, 0.2, 0.3), // meets both but failed
	}
	failed := []bool{false, false, false, true}
	if got := SLOAttainment(samples, failed, 0.2, 0.15); got != 0.25 {
		t.Errorf("SLOAttainment = %g, want 0.25 (a failed request misses)", got)
	}
	if got := FailedShare(1, 4); got != 0.25 {
		t.Errorf("FailedShare(1, 4) = %g", got)
	}
	if got := FailedShare(0, 0); got != 0 {
		t.Errorf("FailedShare(0, 0) = %g", got)
	}
	if got := samples[2].TPOTS(); math.Abs(got-0.3) > 1e-12 {
		t.Errorf("TPOTS = %g, want 0.3", got)
	}
	// One stream in flight over [0, 0.4) of a 0.8 s window with 4 tokens,
	// one over [0.2, 0.8) with 6: slice k of eight is [0.1k, 0.1(k+1)).
	// Slices 2 and 3 hold both: 1/0.4 + 1/0.6 streams/s, 10 + 10 tokens/s.
	flight := []*Sample{
		{req: req, JCTS: 0.4, EndS: 0.4, TokenEndsS: make([]float64, 4)},
		{req: req, JCTS: 0.6, EndS: 0.8, TokenEndsS: make([]float64, 6)},
		{req: req, JCTS: 0.8, EndS: 0.8, TokenEndsS: make([]float64, 80)}, // failed: counts for nothing
	}
	tps, rps := quietSliceThroughput(flight, []bool{false, false, true}, 0.8)
	// Per slice: [2.5 2.5 4.17 4.17 1.67 1.67 1.67 1.67] streams/s, [10 10 20 20 10 10 10 10] tokens/s.
	if want := Quantile([]float64{2.5, 2.5, 1/0.4 + 1/0.6, 1/0.4 + 1/0.6, 1 / 0.6, 1 / 0.6, 1 / 0.6, 1 / 0.6}, 0.75); math.Abs(rps-want) > 1e-9 {
		t.Errorf("quietSliceThroughput = %g streams/s, want %g", rps, want)
	}
	if want := Quantile([]float64{10, 10, 20, 20, 10, 10, 10, 10}, 0.75); math.Abs(tps-want) > 1e-9 {
		t.Errorf("quietSliceThroughput = %g tokens/s, want %g", tps, want)
	}

	// Four rounds of `strata` requests with medians 4, 1, 3, 2: the lower
	// quartile round's median is 1.75. A failed sample is left out.
	var rounds []*Sample
	var roundsFailed []bool
	for _, m := range []float64{4, 1, 3, 2} {
		for i := 0; i < strata; i++ {
			rounds = append(rounds, &Sample{req: req, TTFTS: m + float64(i-strata/2)/100})
			roundsFailed = append(roundsFailed, false)
		}
	}
	rounds[0].TTFTS, roundsFailed[0] = 1000, true
	ttft := func(s *Sample) float64 { return s.TTFTS }
	if got := quietRoundMedian(rounds, roundsFailed, ttft); math.Abs(got-1.745) > 1e-9 {
		t.Errorf("quietRoundMedian = %g, want 1.745", got)
	}
	if got := quietRoundMedian(rounds[:3], roundsFailed[:3], ttft); got != Median([]float64{rounds[1].TTFTS, rounds[2].TTFTS}) {
		t.Errorf("quietRoundMedian of less than a round = %g", got)
	}

	ok := &Sample{req: req, TokenEndsS: []float64{1, 2, 3}}
	if ok.Failed([]int{1, 2, 3}, []int{1, 2, 3}) {
		t.Error("a matching stream failed")
	}
	if !ok.Failed([]int{1, 2, 4}, []int{1, 2, 3}) {
		t.Error("a differing stream passed")
	}
	short := &Sample{req: req, TokenEndsS: []float64{1, 2}}
	if !short.Failed([]int{1, 2}, []int{1, 2, 3}) {
		t.Error("a short stream passed")
	}
	refused := &Sample{req: req, Err: "HTTP 429 Too Many Requests"}
	if !refused.Failed(nil, []int{1, 2, 3}) {
		t.Error("a refused request passed")
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	spans := []Span{
		{ID: 1, Parent: 0, Method: "m", Name: "request", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Method: "m", Name: "prefill", StartNS: 10, EndNS: 70},
		{ID: 3, Parent: 1, Method: "m", Name: "decode", StartNS: 70, EndNS: 95},
		{ID: 4, Parent: 0, Method: "other", Name: "request", StartNS: 0, EndNS: 1000},
	}
	self := SelfSeconds(spans, "m")
	want := map[string]float64{"request": 15e-9, "prefill": 60e-9, "decode": 25e-9}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("SelfSeconds = %v, want %v", self, want)
	}
	if got := rootSeconds(spans, "m"); len(got) != 1 || got[0] != 100e-9 {
		t.Errorf("rootSeconds = %v", got)
	}
}

// TestSmoke runs one second of each workload, without the warm-up, and
// wants every stream equal to its reference.
func TestSmoke(t *testing.T) {
	ctx := context.Background()
	for _, w := range Workloads {
		d, err := Deploy(ctx, w)
		if err != nil {
			t.Fatal(err)
		}
		l, err := runLoad(ctx, w, 1, d, pacedShare, saturatedShare)
		d.Close()
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := l.check(ctx, w); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if l.attempted() < 3 || l.failed() != 0 || l.mismatches != 0 {
			t.Errorf("%s: %d attempted, %d failed, %d token mismatches", w.Name, l.attempted(), l.failed(), l.mismatches)
		}
		if got := l.linkBytes > 0; got != w.Fleet {
			t.Errorf("%s: %d KV bytes crossed the router's links", w.Name, l.linkBytes)
		}
	}
}

// benchmarkFile is BENCHMARK.json, which names this benchmark to the
// driver; the code and the file have to say the same thing.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != RunSeconds {
		t.Errorf("run_seconds %d, RunSeconds %d", f.RunSeconds, RunSeconds)
	}
	if len(f.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(f.Workloads), len(Workloads))
	}
	for i, w := range Workloads {
		if f.Workloads[i].Name != w.Name || f.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json says %q, the code %q", i, f.Workloads[i], w.Name)
		}
	}
	if len(f.EndToEnd) != len(Gates) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d gates in the code", len(f.EndToEnd), len(Gates))
	}
	for i, g := range Gates {
		better := "lower"
		if g.Higher {
			better = "higher"
		}
		if m := f.EndToEnd[i]; m.Name != g.Name || m.Unit != g.Unit || m.Better != better || m.Bound != g.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json says %+v, the code %+v", i, m, g)
		}
	}
}

// TestTracedSmoke runs a two-second traced run of the fleet workload —
// the one whose staged replay crosses the wire — and holds its metric
// names to BENCHMARK.json's per_layer list.
func TestTracedSmoke(t *testing.T) {
	w, err := WorkloadNamed("fleet_longprompt")
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunTraced(context.Background(), w, 1, 2, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || r.Attempted == 0 {
		t.Errorf("%d of %d requests failed", r.Failed, r.Attempted)
	}
	if got := r.Metric("disagg.wire_crossings"); got != 2 {
		t.Errorf("disagg.wire_crossings = %g, want 2 at the seed commit", got)
	}
	if got := r.Metric("trace.share.wire"); !(got > 0) {
		t.Errorf("trace.share.wire = %g on the fleet", got)
	}
	f := readBenchmarkFile(t)
	if len(f.PerLayer) != len(r.Metrics) {
		t.Errorf("%d per-layer metrics in BENCHMARK.json, %d in a traced run", len(f.PerLayer), len(r.Metrics))
	}
	for i, m := range r.Metrics {
		if i < len(f.PerLayer) && (f.PerLayer[i].Name != m.Name || f.PerLayer[i].Unit != m.Unit) {
			t.Errorf("per-layer metric %d: BENCHMARK.json says %s (%s), the traced run %s (%s)", i, f.PerLayer[i].Name, f.PerLayer[i].Unit, m.Name, m.Unit)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			t.Errorf("%s = %g", m.Name, m.Value)
		}
	}
}
