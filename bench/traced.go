package bench

import (
	"context"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"time"

	"github.com/hackkv/hack"
)

// Shares of a traced run's seconds spent on its load phases. They are
// short: the traced run's own numbers are the spans and the layer
// timings, and the load only has to fill the serving runtime's and the
// router's counters.
const (
	tracedPacedShare     = 0.2
	tracedSaturatedShare = 0.1
)

// unloadedRequests is how many requests of the paced trace are served,
// submitted and replayed one at a time: two per measured second, the
// first 32 at the benchmark's 16.
func unloadedRequests(seconds float64) int { return max(2, int(2*seconds)) }

// generate submits one request straight to the deployment's runtime (or
// router), without HTTP, and returns its ids and time to first token.
func (d *Deployment) generate(ctx context.Context, r *Request) (ids []int, ttftS float64, err error) {
	start := time.Now()
	first := func() {
		if len(ids) == 1 {
			ttftS = time.Since(start).Seconds()
		}
	}
	if d.Local != nil {
		st, err := d.Local.Submit(ctx, hack.GenRequest{Prompt: r.Prompt, MaxNewTokens: r.MaxTokens, Seed: r.Seed})
		if err != nil {
			return nil, 0, err
		}
		for tok := range st.Tokens() {
			ids = append(ids, tok.ID)
			first()
		}
		return ids, ttftS, st.Err()
	}
	st, err := d.Router.Submit(ctx, hack.RoutedRequest{Prompt: r.Prompt, MaxNewTokens: r.MaxTokens, Seed: r.Seed})
	if err != nil {
		return nil, 0, err
	}
	for tok := range st.Tokens() {
		ids = append(ids, tok.ID)
		first()
	}
	return ids, ttftS, st.Err()
}

// RunTraced is the traced run. It is separate from the gated run, which
// carries no spans:
//
//  1. One deployment serves the first requests of the paced trace one at
//     a time over HTTP (the served, unloaded TTFT and JCT), then a short
//     paced and saturated load whose only purpose is to fill the serving
//     runtime's, the router's and the prefill node's counters.
//  2. A second, fresh deployment is handed the same first requests by
//     direct Submit calls, so HTTP's share of TTFT is a paired
//     difference.
//  3. The benchmark performs the same requests itself, stage by stage,
//     through the layers' public functions with a span around each call
//     — as the workload's deployment would, and as a plain local server
//     of HACK, KVQuant and FP16 would (the paper's comparison).
//  4. Each layer's public functions are timed alone.
//
// Spans are written to outDir/trace-<workload>.json.
func RunTraced(ctx context.Context, w Workload, seed int64, seconds float64, outDir string) (*Result, error) {
	stop, err := keepAwake()
	if err != nil {
		return nil, err
	}
	defer stop()
	r := newResult(w, seed, seconds, true)
	k := unloadedRequests(seconds)
	nPaced := int(math.Round(w.RateRPS * pacedShare * seconds))
	first := phaseSpec{Seed: seed, Section: SectionPaced, N: nPaced, PacedSeconds: pacedShare * seconds,
		Clients: 1, Seconds: 3600, First: k}

	// 1. Served unloaded, then loaded.
	d, _, err := setup(ctx, w, seed, time.Now())
	if err != nil {
		return nil, err
	}
	first.URL = d.URL
	reqs, served, err := drive(ctx, w, first)
	var unloaded *deploymentCounters
	if err == nil {
		unloaded, err = readCounters(d)
	}
	var l *loadRun
	if err == nil {
		l, err = runLoad(ctx, w, seed, d, tracedPacedShare*seconds, tracedSaturatedShare*seconds)
	}
	var counters *deploymentCounters
	if err == nil {
		counters, err = readCounters(d)
	}
	d.Close()
	if err != nil {
		return nil, err
	}
	if err := l.check(ctx, w); err != nil {
		return nil, err
	}
	reqs = reqs[:min(k, len(reqs))]
	if len(served.Samples) != len(reqs) {
		return nil, fmt.Errorf("bench: %d of the first %d requests were served", len(served.Samples), len(reqs))
	}

	// 2. Direct submission to a fresh deployment.
	d2, _, err := setup(ctx, w, seed, time.Now())
	if err != nil {
		return nil, err
	}
	directIDs := make([][]int, len(reqs))
	directTTFT := make([]float64, len(reqs))
	for i := range reqs {
		if directIDs[i], directTTFT[i], err = d2.generate(ctx, &reqs[i]); err != nil {
			break
		}
	}
	d2.Close()
	if err != nil {
		return nil, fmt.Errorf("bench: direct submit: %w", err)
	}

	// 3. Staged replays.
	rec := newSpanRecorder()
	crossings := int(math.Round(counters.wireCrossings()))
	shaped, err := newStager(w, MethodHACK, rec, crossings, counters.prefixBytes)
	if err != nil {
		return nil, err
	}
	defer shaped.close()
	if w.Prefix {
		// Fill the staged tier the way set-up filled the deployment's.
		warm, err := BuildTrace(w, seed, SectionWarmup, WarmupRequests, 0)
		if err != nil {
			return nil, err
		}
		shaped.rec = newSpanRecorder() // warm-up spans are not kept
		_, _, err = shaped.stagedRun(ctx, warm)
		shaped.rec = rec
		if err != nil {
			return nil, err
		}
	}
	stagedIDs, stagedTTFT, err := shaped.stagedRun(ctx, reqs)
	if err != nil {
		return nil, err
	}
	plain := w
	plain.Fleet, plain.Prefix = false, false
	methodJCT := make(map[string]float64)
	var plainTTFT []float64
	for _, mk := range methodKeys {
		method := mk.method
		if mk.method == MethodHACK && !w.Fleet && !w.Prefix {
			// The workload's own replay already is the plain local one.
			methodJCT[mk.key], plainTTFT = Median(rootSeconds(rec.spans, MethodHACK)), stagedTTFT
			continue
		}
		if mk.method == MethodHACK {
			method = MethodHACK + "/local" // keeps its spans apart from the workload-shaped replay's
		}
		st, err := newStager(plain, mk.method, rec, 0, 0)
		if err != nil {
			return nil, err
		}
		st.method = method
		ids, ttft, err := st.stagedRun(ctx, reqs)
		st.close()
		if err != nil {
			return nil, err
		}
		for i := range ids {
			if len(ids[i]) != reqs[i].MaxTokens {
				return nil, fmt.Errorf("bench: staged %s request %d: %d of %d tokens", method, reqs[i].ID, len(ids[i]), reqs[i].MaxTokens)
			}
		}
		methodJCT[mk.key] = Median(rootSeconds(rec.spans, method))
		if mk.method == MethodHACK {
			plainTTFT = ttft
		}
	}
	if err := rec.write(filepath.Join(outDir, "trace-"+w.Name+".json")); err != nil {
		return nil, err
	}
	for _, method := range spanMethods(rec.spans) {
		r.Bars = append(r.Bars, newBar(rec.spans, method))
	}

	// The three one-at-a-time passes must agree token for token.
	unloadedFailed := 0
	servedTTFT, servedJCT, servedTPOT := make([]float64, len(reqs)), make([]float64, len(reqs)), make([]float64, len(reqs))
	httpOverhead := make([]float64, len(reqs))
	for i, s := range served.Samples {
		if s.Err != "" || !slices.Equal(s.IDs(), stagedIDs[i]) || !slices.Equal(directIDs[i], stagedIDs[i]) || len(stagedIDs[i]) != reqs[i].MaxTokens {
			unloadedFailed++
		}
		servedTTFT[i], servedJCT[i], servedTPOT[i] = s.TTFTS, s.JCTS, s.TPOTS()
		httpOverhead[i] = (s.TTFTS - directTTFT[i]) * 1e3
	}

	l.clientMetrics(r)
	r.add("proc.peak_rss_mb", peakRSSMB(), "MB")

	var non2xx int
	for _, s := range append(append([]*Sample(nil), l.paced...), l.sat...) {
		if s.Status != 200 {
			non2xx++
		}
	}
	r.add("api.http_overhead_p50_ms", Median(httpOverhead), "ms")
	r.add("api.non_2xx", float64(non2xx), "count")

	self := SelfSeconds(rec.spans, MethodHACK)
	stagedDecode := spanMedian(rec.spans, MethodHACK, "model.decode")
	promptTokens := promptTokensSent(w, seed, reqs, l)
	counters.serveMetrics(r, promptTokens, unloaded.tbtP50()-stagedDecode)
	counters.disaggMetrics(r, l, promptTokens, Median(stagedTTFT)-Median(plainTTFT), Median(servedTPOT)-unloaded.tbtP50())

	r.add("method.hack.jct_p50_s", methodJCT["hack"], "s")
	r.add("method.kvquant.jct_p50_s", methodJCT["kvquant"], "s")
	r.add("method.fp16.jct_p50_s", methodJCT["fp16"], "s")
	r.add("method.hack_vs_kvquant.jct_ratio", methodJCT["hack"]/methodJCT["kvquant"], "ratio")
	r.add("method.hack_vs_fp16.jct_ratio", methodJCT["hack"]/methodJCT["fp16"], "ratio")

	var total float64
	for _, v := range self {
		total += v
	}
	for _, name := range stageNames {
		r.add("trace.share."+name, self[name]/total, "share")
	}
	var transfer float64
	for _, name := range transferStages {
		transfer += self[name]
	}
	r.add("trace.transfer_share_of_ttft", transfer/sum(stagedTTFT), "share")
	r.add("trace.served_unloaded_ttft_p50_s", Median(servedTTFT), "s")
	r.add("trace.served_unloaded_jct_p50_s", Median(servedJCT), "s")
	r.add("trace.reconstruction_gap", math.Abs(total-sum(servedJCT))/sum(servedJCT), "share")

	if err := layerMetrics(r); err != nil {
		return nil, err
	}
	l.counts(r)
	r.Attempted += 2 * len(reqs)
	r.Failed += unloadedFailed
	r.Correct = r.Failed == 0
	return r, nil
}

// stageNames are the span names of a staged request, in pipeline order;
// "request" is the replay loop's own time.
var stageNames = []string{
	"request", "api.encode", "model.session",
	"kvcache.prefix_lookup", "kvcache.prefix_restore", "model.resume_prefill", "model.prefill", "kvcache.prefix_insert",
	"kvcache.export", "netsim.frame_encode", "wire", "netsim.frame_decode", "kvcache.restore",
	"model.decode", "api.delta",
}

// transferStages are the stages disaggregation adds before the first
// token.
var transferStages = []string{"kvcache.export", "netsim.frame_encode", "wire", "netsim.frame_decode", "kvcache.restore"}

// spanMethods lists the methods that recorded spans, in first-seen
// order.
func spanMethods(spans []Span) []string {
	var out []string
	seen := make(map[string]bool)
	for _, s := range spans {
		if !seen[s.Method] {
			seen[s.Method] = true
			out = append(out, s.Method)
		}
	}
	return out
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// spanMedian is the median duration, in seconds, of one method's spans
// of one name.
func spanMedian(spans []Span, method, name string) float64 {
	var ds []float64
	for _, s := range spans {
		if s.Method == method && s.Name == name {
			ds = append(ds, float64(s.EndNS-s.StartNS)/1e9)
		}
	}
	return Median(ds)
}

// promptTokensSent totals the prompt tokens the first deployment was
// sent: warm-up, the one-at-a-time pass and both load phases.
func promptTokensSent(w Workload, seed int64, first []Request, l *loadRun) int {
	n := PromptTokens(first)
	if warm, err := BuildTrace(w, seed, SectionWarmup, WarmupRequests, 0); err == nil {
		n += PromptTokens(warm)
	}
	for _, s := range append(append([]*Sample(nil), l.paced...), l.sat...) {
		n += len(s.req.Prompt)
	}
	return n
}

// deploymentCounters is what a deployment's own counters said:
// Server.Metrics(), DisaggServer.Report(), the prefill node's stats and
// the shaping proxies' byte counts.
type deploymentCounters struct {
	serve       []hack.ServeSnapshot
	report      hack.DisaggReport
	fleet       bool
	prefillKV   int64
	prefills    int64
	proxyBytes  int64
	prefixBytes int64
}

func readCounters(d *Deployment) (*deploymentCounters, error) {
	c := &deploymentCounters{fleet: d.Router != nil, prefixBytes: d.prefixBytes}
	var err error
	if c.serve, err = d.ServeSnapshots(); err != nil {
		return nil, err
	}
	if d.Router != nil {
		c.report = d.Router.Report()
		if c.prefillKV, c.prefills, err = d.PrefillStats(); err != nil {
			return nil, err
		}
	}
	for _, p := range d.Proxies {
		in, out := p.Bytes()
		c.proxyBytes += in + out
	}
	return c, nil
}

// tbtP50 is the serving runtime's median time between a request's
// tokens (the slowest node's on a fleet).
func (c *deploymentCounters) tbtP50() float64 {
	var tbt float64
	for _, s := range c.serve {
		tbt = max(tbt, s.TBT.P50)
	}
	return tbt
}

// wireCrossings is how many times a cache crossed the wire: the
// router's link bytes over the bytes the prefill node framed.
func (c *deploymentCounters) wireCrossings() float64 {
	if c.prefillKV == 0 {
		return 0
	}
	return float64(linkKVBytes(c.report)) / float64(c.prefillKV)
}

// serveMetrics appends the serving runtime's metrics; on a fleet they
// come from the decode nodes (counts summed, percentiles the worst
// node's, which is all unmergeable summaries allow).
func (c *deploymentCounters) serveMetrics(r *Result, promptTokens int, stepOverheadS float64) {
	var steps, tokens, rejected, kvPeak int64
	var occupancy, q50, q99, ttft float64
	var reused, evictions, insertRejected, bytesUsed int64
	for _, s := range c.serve {
		steps += s.DecodeSteps
		tokens += s.TokensStreamed
		rejected += s.RejectedFull
		kvPeak = max(kvPeak, s.KVBytesPeak)
		occupancy += s.BatchOccupancy * float64(s.DecodeSteps)
		q50, q99 = max(q50, s.QueueDelay.P50), max(q99, s.QueueDelay.P99)
		ttft = max(ttft, s.TTFT.P50)
		if pc := s.PrefixCache; pc != nil {
			reused, evictions, insertRejected, bytesUsed = pc.TokensReused, pc.Evictions, pc.InsertRejected, pc.BytesUsed
		}
	}
	r.add("serve.queue_delay_p50_s", q50, "s")
	r.add("serve.queue_delay_p99_s", q99, "s")
	r.add("serve.batch_occupancy", occupancy/float64(max(steps, 1)), "count")
	r.add("serve.decode_steps", float64(steps), "count")
	r.add("serve.tokens_per_step", float64(tokens)/float64(max(steps, 1)), "count")
	r.add("serve.kv_bytes_peak", float64(kvPeak), "B")
	r.add("serve.rejected_queue_full", float64(rejected), "count")
	r.add("serve.ttft_p50_s", ttft, "s")
	// What a decode step costs beyond the model's: the runtime's own
	// median time between a request's tokens, serving one request at a
	// time, less the staged decode call's.
	r.add("serve.step_overhead_us", stepOverheadS*1e6, "us")
	r.add("serve.prefix_hit_token_share", float64(reused)/float64(max(promptTokens, 1)), "share")
	r.add("serve.prefix_evictions", float64(evictions), "count")
	r.add("serve.prefix_insert_rejected", float64(insertRejected), "count")
	r.add("serve.prefix_bytes_used", float64(bytesUsed), "B")
}

// disaggMetrics appends the fleet's metrics (zeros on a local role).
//
// promptTokens is every prompt token the deployment was sent;
// ttftOverheadS the staged fleet-shaped TTFT less the staged local one;
// tokenProxyS the client's unloaded time per token less the decode
// node's own time between tokens.
func (c *deploymentCounters) disaggMetrics(r *Result, l *loadRun, promptTokens int, ttftOverheadS, tokenProxyS float64) {
	var perRequest, tokenProxy, imbalance, overhead float64
	if c.fleet {
		perRequest = float64(c.prefillKV) / float64(max(c.prefills, 1))
		overhead, tokenProxy = ttftOverheadS*1e3, tokenProxyS*1e6
		lo, hi, total := int64(math.MaxInt64), int64(0), int64(0)
		for _, rep := range c.report.Replicas {
			lo, hi, total = min(lo, rep.Requests), max(hi, rep.Requests), total+rep.Requests
		}
		if total > 0 {
			imbalance = float64(hi-lo) * float64(len(c.report.Replicas)) / float64(total)
		}
	}
	r.add("disagg.wire_crossings", c.wireCrossings(), "count")
	r.add("disagg.kv_bytes_per_request", perRequest, "B")
	r.add("disagg.wire_ms_per_request", c.wireCrossings()*perRequest/WireBytesPerSecond*1e3, "ms")
	r.add("disagg.kv_wire_bytes_per_prompt_token", l.kvWireBytesPerPromptToken(), "B")
	// Every byte the proxies relayed, handshakes, jobs and tokens
	// included: the benchmark's own count, whichever node the program
	// has the cache cross between.
	r.add("disagg.proxied_bytes_per_prompt_token", float64(c.proxyBytes)/float64(max(promptTokens, 1)), "B")
	r.add("disagg.ttft_overhead_ms", overhead, "ms")
	r.add("disagg.token_proxy_us", tokenProxy, "us")
	r.add("disagg.transfer_p50_s", c.report.TransferSeconds.P50, "s")
	r.add("disagg.transfer_p99_s", c.report.TransferSeconds.P99, "s")
	r.add("disagg.retries", float64(c.report.Retries), "count")
	r.add("disagg.failovers", float64(c.report.Failovers), "count")
	r.add("disagg.replica_imbalance", imbalance, "share")
}
