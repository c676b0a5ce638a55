package bench

import (
	"math"
	"slices"
	"sort"
)

// Quantile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation between order statistics; 0 for an empty slice.
func Quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := math.Max(0, math.Min(1, p)) * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Median is Quantile(xs, 0.5).
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Failed reports whether a checked sample failed: refused or errored,
// fewer (or more) tokens than asked, or token ids that differ from the
// reference stream.
func (s *Sample) Failed(ids, reference []int) bool {
	return s.Err != "" || s.Tokens() != s.req.MaxTokens || !slices.Equal(ids, reference)
}

// SLOAttainment is the share of requests sent that did not fail and met
// both limits; a failed request misses.
func SLOAttainment(samples []*Sample, failed []bool, ttftLimitS, tpotLimitS float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	met := 0
	for i, s := range samples {
		if !failed[i] && s.TTFTS <= ttftLimitS && s.TPOTS() <= tpotLimitS {
			met++
		}
	}
	return float64(met) / float64(len(samples))
}

// FailedShare is failed over attempted.
func FailedShare(failed, attempted int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// latencies pulls one latency out of every sample that did not fail.
func latencies(samples []*Sample, failed []bool, f func(*Sample) float64) []float64 {
	out := make([]float64, 0, len(samples))
	for i, s := range samples {
		if !failed[i] {
			out = append(out, f(s))
		}
	}
	return out
}

// tokenGaps lists the times between consecutive token chunks of every
// sample that did not fail.
func tokenGaps(samples []*Sample, failed []bool) []float64 {
	var out []float64
	for i, s := range samples {
		if failed[i] {
			continue
		}
		for k := 1; k < len(s.TokenEndsS); k++ {
			out = append(out, s.TokenEndsS[k]-s.TokenEndsS[k-1])
		}
	}
	return out
}

// The host this benchmark runs on is shared: identical work took 40 ms
// one minute and 65 ms the next. Keeping the CPUs awake (awake.go)
// removes most of that, and what interference remains only ever slows.
// So a run's numbers are taken from its quiet part. Both phases fall
// into comparable pieces — the paced trace into its stratified rounds
// (every `strata` consecutive requests carry the same mix of lengths),
// the saturated window into equal slices — and a metric is the quartile
// of the pieces on the fast side: robust to interference over up to
// three quarters of a run, and still moved by anything that slows every
// piece, as a change to the program does.

// quietRoundMedian is the lower quartile, over the paced trace's rounds,
// of a round's median of f over the samples that did not fail. Samples
// must be in trace order.
func quietRoundMedian(samples []*Sample, failed []bool, f func(*Sample) float64) float64 {
	var medians []float64
	for lo := 0; lo+strata <= len(samples); lo += strata {
		if xs := latencies(samples[lo:lo+strata], failed[lo:lo+strata], f); len(xs) > 0 {
			medians = append(medians, Median(xs))
		}
	}
	if len(medians) == 0 { // less than one round: a smoke run
		return Median(latencies(samples, failed, f))
	}
	return Quantile(medians, 0.25)
}

// satSlices is how many equal slices the saturated window is cut into.
const satSlices = 8

// quietSliceThroughput spreads each stream that did not fail, and its
// tokens, evenly over the time it was in flight, sums what falls into
// each slice of the first `window` seconds, and returns the upper
// quartile slice's rates.
func quietSliceThroughput(samples []*Sample, failed []bool, window float64) (tokensPerS, requestsPerS float64) {
	if window <= 0 {
		return 0, 0
	}
	slice := window / satSlices
	tokens, requests := make([]float64, satSlices), make([]float64, satSlices)
	for i, s := range samples {
		if failed[i] || s.JCTS <= 0 {
			continue
		}
		start, end := s.EndS-s.JCTS, s.EndS
		for k := range requests {
			lo, hi := float64(k)*slice, float64(k+1)*slice
			if overlap := min(end, hi) - max(start, lo); overlap > 0 {
				share := overlap / (end - start)
				requests[k] += share / slice
				tokens[k] += share * float64(s.Tokens()) / slice
			}
		}
	}
	return Quantile(tokens, 0.75), Quantile(requests, 0.75)
}
