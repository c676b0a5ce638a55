// Package metrics implements the accuracy metrics of §7.1 — ROUGE-1 for
// summarization-style outputs and normalized Levenshtein edit similarity
// for code-completion-style outputs — over integer token sequences, plus
// the summary statistics the experiment tables report and the
// nearest-rank latency percentiles shared by the serving simulator and
// the live serving runtime.
package metrics

import (
	"math"
	"sort"
)

// Rouge1 returns the ROUGE-1 F1 score between a candidate and a
// reference token sequence: the harmonic mean of unigram precision and
// recall, with clipped counts. Both empty yields 1; one empty yields 0.
func Rouge1(candidate, reference []int) float64 {
	if len(candidate) == 0 && len(reference) == 0 {
		return 1
	}
	if len(candidate) == 0 || len(reference) == 0 {
		return 0
	}
	refCount := make(map[int]int, len(reference))
	for _, tok := range reference {
		refCount[tok]++
	}
	overlap := 0
	for _, tok := range candidate {
		if refCount[tok] > 0 {
			refCount[tok]--
			overlap++
		}
	}
	if overlap == 0 {
		return 0
	}
	p := float64(overlap) / float64(len(candidate))
	r := float64(overlap) / float64(len(reference))
	return 2 * p * r / (p + r)
}

// EditSimilarity returns 1 − d/max(|a|,|b|) where d is the Levenshtein
// distance — the normalized edit similarity used for HumanEval. Both
// empty yields 1.
func EditSimilarity(a, b []int) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	d := levenshtein(a, b)
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	return 1 - float64(d)/float64(n)
}

// levenshtein computes edit distance with two rolling rows.
func levenshtein(a, b []int) int {
	if len(a) < len(b) {
		a, b = b, a
	}
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			m := prev[j-1] + cost        // substitution
			if v := prev[j] + 1; v < m { // deletion
				m = v
			}
			if v := cur[j-1] + 1; v < m { // insertion
				m = v
			}
			cur[j] = m
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// ExactMatchPrefix returns the fraction of positions, up to the shorter
// length, where the sequences agree — a strict generation-fidelity
// measure useful for debugging divergence points.
func ExactMatchPrefix(a, b []int) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	if n == 0 {
		if len(a) == len(b) {
			return 1
		}
		return 0
	}
	match := 0
	for i := 0; i < n; i++ {
		if a[i] == b[i] {
			match++
		}
	}
	return float64(match) / float64(n)
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Ratio returns a/b, or 0 when b is 0 — convenient for time-ratio
// columns.
func Ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// NearestRank returns the nearest-rank p-quantile (0 ≤ p ≤ 1) of xs:
// the ⌈p·n⌉-th smallest value. It sorts a copy, never the caller's
// slice, and returns 0 for an empty input. This is the serving-latency
// percentile definition shared by the simulator summaries and the live
// runtime snapshots.
func NearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// RingSize bounds each Ring: once full, a new sample overwrites the
// oldest, so a summary tracks recent behaviour at O(1) memory under
// sustained load.
const RingSize = 4096

// Ring is a bounded latency reservoir holding the most recent RingSize
// samples. It is not safe for concurrent use; its owner holds the lock.
type Ring struct {
	xs   []float64
	next int
}

// Add records one sample, overwriting the oldest once the ring is full.
func (r *Ring) Add(x float64) {
	if len(r.xs) < RingSize {
		r.xs = append(r.xs, x)
		return
	}
	r.xs[r.next] = x
	r.next = (r.next + 1) % RingSize
}

// Snapshot copies the held samples, so the caller can summarize them
// after releasing its lock.
func (r *Ring) Snapshot() []float64 { return append([]float64(nil), r.xs...) }

// PercentileSummary is the nearest-rank p50/p90/p99 of one latency
// metric, in seconds.
type PercentileSummary struct {
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
}

// Summarize computes the nearest-rank p50/p90/p99 summary of xs,
// sorting one copy once for all three ranks.
func Summarize(xs []float64) PercentileSummary {
	if len(xs) == 0 {
		return PercentileSummary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	at := func(p float64) float64 {
		rank := int(math.Ceil(p * float64(len(sorted))))
		if rank < 1 {
			rank = 1
		}
		return sorted[rank-1]
	}
	return PercentileSummary{P50: at(0.50), P90: at(0.90), P99: at(0.99)}
}

// Percentile returns the p-quantile (0 ≤ p ≤ 1) of xs by linear
// interpolation over a sorted copy; 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	insertionSort(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
