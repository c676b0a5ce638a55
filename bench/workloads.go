// Package bench is the library behind cmd/servebench, the end-to-end
// serving benchmark: workload and trace generation, in-process
// deployments built from the public facade, an SSE load client, the
// shaping proxy that fronts the fleet's wire addresses, the reference
// streams every answer is checked against, and the traced run that
// attributes a request's time to the layers. See README.md.
package bench

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"github.com/hackkv/hack/internal/api"
	"github.com/hackkv/hack/internal/workload"
)

// Server caps every deployment runs under.
const (
	MaxNewTokens   = 512
	QueueCap       = 256
	MaxBatch       = 8
	PrefillWorkers = 2
)

// The prefix workload's shape: 16 shared prefixes of 512 tokens with
// Zipf(s=1) popularity, unique suffixes of less than a page (so only
// prefix pages are ever cached, and every prompt has the same number of
// full Π blocks; README.md's known gaps say why that matters), and a
// cache sized for 12 of the 16 prefixes: about seven requests in eight
// hit. With room for 8, two in three hit and the median TTFT sat on the
// slow edge of the warm requests, next to the cold ones: it moved by 30%
// between runs of one commit.
const (
	PrefixCount    = 16
	PrefixTokens   = 512
	PrefixResident = 12
)

// WireBytesPerSecond is the rate the shaping proxy paces each direction
// of every fleet node's wire address at: an FP16 cache of the mean
// prompt (394 tokens × 512 B) takes about one prefill time to cross it,
// the regime the paper argues from.
const WireBytesPerSecond = 3e6

// WarmupRequests is the number of requests a deployment answers before
// it counts as set up.
const WarmupRequests = 32

// Workload is one deployment plus one traffic mix.
type Workload struct {
	Name string
	// Why is the one-line reason the workload exists.
	Why string
	// Fleet selects router + 1 prefill + 2 decode nodes behind the
	// shaping proxy; otherwise the local role.
	Fleet bool
	// Prefix prepends one of PrefixCount shared prefixes to every
	// prompt and enables the prefix cache; Prompt then describes the
	// unique suffix.
	Prefix bool
	// Prompt and Output are the token length distributions.
	Prompt, Output workload.LengthDist
	// RateRPS is the paced phase's arrival rate, pinned at half the
	// seed commit's saturated requests per second.
	RateRPS float64
	// TTFTLimitS and TPOTLimitS are the latency limits slo_attainment
	// is counted against, pinned at three times the seed commit's paced
	// p90 TTFT and five times its paced p90 TPOT.
	TTFTLimitS, TPOTLimitS float64
}

// Workloads is the benchmark's fixed set. Rates and limits were pinned
// once from the seed commit (bench/README.md says how); they are part
// of the ruler and do not move with the program.
var Workloads = []Workload{
	{
		Name:    "local_chat",
		Why:     "short prompts, long outputs: decode kernel, batcher and SSE delivery do the work; no wire, no prefix tier",
		Prompt:  workload.LengthDist{Min: 16, Avg: 48, Max: 128},
		Output:  workload.LengthDist{Min: 32, Avg: 160, Max: 512},
		RateRPS: 26, TTFTLimitS: 0.024, TPOTLimitS: 0.0016,
	},
	{
		Name:    "local_longprompt",
		Why:     "long prompts, short outputs: prefill kernel and quantizer do the work; decode little; no wire",
		Prompt:  workload.LengthDist{Min: 100, Avg: 394, Max: 881},
		Output:  workload.LengthDist{Min: 2, Avg: 15, Max: 29},
		RateRPS: 13, TTFTLimitS: 0.32, TPOTLimitS: 0.0017,
	},
	{
		Name:    "fleet_longprompt",
		Why:     "local_longprompt's trace through router, prefill and two decode nodes over a 3 MB/s wire: the cost of disaggregation",
		Fleet:   true,
		Prompt:  workload.LengthDist{Min: 100, Avg: 394, Max: 881},
		Output:  workload.LengthDist{Min: 2, Avg: 15, Max: 29},
		RateRPS: 12, TTFTLimitS: 0.49, TPOTLimitS: 0.0013,
	},
	{
		Name:    "local_prefix_shared",
		Why:     "16 shared 512-token prefixes, cache for 12: page restores beside inserts and evictions under position-stable rounding",
		Prefix:  true,
		Prompt:  workload.LengthDist{Min: 16, Avg: 40, Max: 63},
		Output:  workload.LengthDist{Min: 2, Avg: 15, Max: 29},
		RateRPS: 35, TTFTLimitS: 0.22, TPOTLimitS: 0.0027,
	},
}

// WorkloadNamed finds a workload by name.
func WorkloadNamed(name string) (Workload, error) {
	for _, w := range Workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(Workloads))
	for i, w := range Workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("bench: unknown workload %q (valid: %v)", name, names)
}

// Request is one generated request: what the client sends and when.
type Request struct {
	ID int
	// DueS is the arrival time in seconds from the phase start (paced
	// phase only).
	DueS float64
	// Prompt is the token-id prompt and Text its rendering; the server
	// only ever sees Text.
	Prompt []int
	Text   string
	// MaxTokens is the number of tokens asked for; the served stream
	// must carry exactly that many.
	MaxTokens int
	// Seed is the request's quantizer seed.
	Seed int64
}

// datasetSeed fixes the shape of the traffic: which lengths, in which
// order, arriving when, and (on the prefix workload) under which shared
// prefix. The benchmark's "dataset" is the same for every -seed, which
// fills in the tokens and seeds the quantizers: it changes what is sent,
// not how long it is or when it is due. With the lengths resampled per
// seed a median over ~150 requests moved by a tenth from seed to seed;
// with only the order and the arrival times reseeded, still by 12–18%,
// because at half load a request's TTFT doubles when it overlaps another
// prefill and which requests overlap is the arrival pattern's doing.
const (
	datasetSeed = 20250926
	poolSize    = 4096
	strata      = 16
)

// lengthPool returns the workload's sorted prompt and output length
// pools, drawn once from internal/workload's distributions.
func lengthPool(w Workload) (prompts, outputs []int, err error) {
	reqs, err := workload.Trace(workload.Dataset{Name: w.Name, Input: w.Prompt, Output: w.Output}, 1, poolSize, datasetSeed)
	if err != nil {
		return nil, nil, err
	}
	prompts, outputs = make([]int, len(reqs)), make([]int, len(reqs))
	for i, r := range reqs {
		prompts[i], outputs[i] = r.InputLen, r.OutputLen
	}
	sort.Ints(prompts)
	sort.Ints(outputs)
	return prompts, outputs, nil
}

// stratified returns n evenly spaced quantiles of the sorted pool,
// ordered so that every run of `strata` consecutive values holds one
// value from each of `strata` equal slices of the distribution: any
// window of the trace then carries nearly the same mix of lengths,
// whatever the seed and wherever a timed phase happens to stop.
func stratified(pool []int, n int, rng *rand.Rand) []int {
	q := make([]int, n)
	for i := range q {
		q[i] = pool[(2*i+1)*len(pool)/(2*n)]
	}
	// Deal the sorted quantiles into strata, shuffle inside each, then
	// take one per stratum round-robin and shuffle each round.
	var buckets [strata][]int
	for i, v := range q {
		b := i * strata / n
		buckets[b] = append(buckets[b], v)
	}
	for b := range buckets {
		rng.Shuffle(len(buckets[b]), func(i, j int) { buckets[b][i], buckets[b][j] = buckets[b][j], buckets[b][i] })
	}
	out := make([]int, 0, n)
	for len(out) < n {
		start := len(out)
		for b := range buckets {
			if k := len(buckets[b]); k > 0 {
				out = append(out, buckets[b][k-1])
				buckets[b] = buckets[b][:k-1]
			}
		}
		round := out[start:]
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
	}
	return out
}

// zipfCounts splits n requests over PrefixCount prefixes in proportion
// to 1/(rank+1) (largest remainders), so the popularity mix is the
// same for every seed.
func zipfCounts(n int) [PrefixCount]int {
	var h float64
	for k := 1; k <= PrefixCount; k++ {
		h += 1 / float64(k)
	}
	var counts [PrefixCount]int
	type rem struct {
		k int
		f float64
	}
	rems := make([]rem, PrefixCount)
	total := 0
	for k := 0; k < PrefixCount; k++ {
		x := float64(n) / (float64(k+1) * h)
		counts[k] = int(math.Floor(x))
		total += counts[k]
		rems[k] = rem{k, x - math.Floor(x)}
	}
	sort.SliceStable(rems, func(i, j int) bool { return rems[i].f > rems[j].f })
	for i := 0; total < n; i++ {
		counts[rems[i%PrefixCount].k]++
		total++
	}
	return counts
}

// Trace sections: requests of different sections of one (workload,
// seed) never share an id, a suffix or a quantizer seed.
const (
	SectionWarmup = iota
	SectionPaced
	SectionSaturated
	sectionStride = 1 << 20
)

// BuildTrace generates n requests of one section of the workload's
// trace. The result is a pure function of (workload, seed, section, n,
// pacedSeconds). With pacedSeconds > 0 the requests carry Poisson
// arrival times from internal/workload.Trace, rescaled so that exactly
// n arrive within pacedSeconds (a Poisson process conditioned on its
// count).
func BuildTrace(w Workload, seed int64, section, n int, pacedSeconds float64) ([]Request, error) {
	prompts, outputs, err := lengthPool(w)
	if err != nil {
		return nil, err
	}
	shape := datasetSeed + int64(section)
	rng := rand.New(rand.NewSource(shape))
	plen := stratified(prompts, n, rng)
	olen := stratified(outputs, n, rng)

	var prefixOf []int
	if w.Prefix {
		for k, c := range zipfCounts(n) {
			for i := 0; i < c; i++ {
				prefixOf = append(prefixOf, k)
			}
		}
		rng.Shuffle(n, func(i, j int) { prefixOf[i], prefixOf[j] = prefixOf[j], prefixOf[i] })
	}

	var due []float64
	if pacedSeconds > 0 {
		// n+1 arrivals: the extra one marks the end of the window.
		arr, err := workload.Trace(workload.Dataset{Name: w.Name, Input: w.Prompt, Output: w.Output},
			float64(n)/pacedSeconds, n+1, shape)
		if err != nil {
			return nil, err
		}
		scale := pacedSeconds / arr[n].ArrivalS
		due = make([]float64, n)
		for i := range due {
			due[i] = arr[i].ArrivalS * scale
		}
	}

	tok := api.NewTokenizer(vocab)
	reqs := make([]Request, n)
	for i := range reqs {
		id := section*sectionStride + i
		r := Request{ID: id, MaxTokens: olen[i], Seed: seed*1_000_003 + int64(id) + 1}
		if due != nil {
			r.DueS = due[i]
		}
		body := randomTokens(rand.New(rand.NewSource(seed*1_000_003+int64(id))), plen[i])
		if w.Prefix {
			// The prefix cache shares pages only inside one quantizer
			// seed, so a prefix's requests share theirs.
			p := prefixOf[i]
			r.Seed = seed*1_000_003 + int64(p) + 1
			r.Prompt = append(prefixTokens(seed, p), body...)
		} else {
			r.Prompt = body
		}
		r.Text = tok.Decode(r.Prompt)
		reqs[i] = r
	}
	return reqs, nil
}

// vocab is the Toy model's vocabulary, the only model servable on a
// CPU (hack.ServeConfig's zero Model).
const vocab = 128

func randomTokens(rng *rand.Rand, n int) []int {
	ids := make([]int, n)
	for i := range ids {
		ids[i] = rng.Intn(vocab)
	}
	return ids
}

// prefixTokens is shared prefix p of the given seed.
func prefixTokens(seed int64, p int) []int {
	return randomTokens(rand.New(rand.NewSource(seed*104_729+int64(p)+17)), PrefixTokens)
}

// PromptTokens sums the prompt lengths of a trace.
func PromptTokens(reqs []Request) int {
	var n int
	for _, r := range reqs {
		n += len(r.Prompt)
	}
	return n
}
