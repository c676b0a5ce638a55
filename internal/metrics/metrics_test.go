package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestRouge1(t *testing.T) {
	cases := []struct {
		name     string
		cand, rf []int
		want     float64
	}{
		{"identical", []int{1, 2, 3}, []int{1, 2, 3}, 1},
		{"disjoint", []int{1, 2}, []int{3, 4}, 0},
		{"both empty", nil, nil, 1},
		{"cand empty", nil, []int{1}, 0},
		{"ref empty", []int{1}, nil, 0},
		// overlap 2, P=2/3, R=1 → F1 = 0.8.
		{"partial", []int{1, 2, 9}, []int{1, 2}, 0.8},
		// Clipping: candidate repeats a token more than reference has.
		{"clipped", []int{5, 5, 5}, []int{5, 6, 7}, 2.0 / 6.0 * 2 / (1.0/3.0 + 1.0/3.0) * (1.0 / 1.0)},
	}
	for _, c := range cases[:6] {
		if got := Rouge1(c.cand, c.rf); !almost(got, c.want) {
			t.Errorf("%s: Rouge1 = %v, want %v", c.name, got, c.want)
		}
	}
	// Clipped case computed directly: overlap=1, P=1/3, R=1/3, F1=1/3.
	if got := Rouge1([]int{5, 5, 5}, []int{5, 6, 7}); !almost(got, 1.0/3.0) {
		t.Errorf("clipped Rouge1 = %v, want 1/3", got)
	}
}

func TestRouge1OrderInvariant(t *testing.T) {
	// ROUGE-1 is a bag-of-tokens metric.
	a := []int{1, 2, 3, 4}
	b := []int{4, 3, 2, 1}
	if got := Rouge1(a, b); !almost(got, 1) {
		t.Errorf("permuted Rouge1 = %v, want 1", got)
	}
}

func TestEditSimilarity(t *testing.T) {
	if got := EditSimilarity([]int{1, 2, 3}, []int{1, 2, 3}); !almost(got, 1) {
		t.Errorf("identical = %v", got)
	}
	if got := EditSimilarity(nil, nil); !almost(got, 1) {
		t.Errorf("empty = %v", got)
	}
	// kitten→sitting classic: distance 3, max len 7 → 1 - 3/7.
	kitten := []int{'k', 'i', 't', 't', 'e', 'n'}
	sitting := []int{'s', 'i', 't', 't', 'i', 'n', 'g'}
	if got := EditSimilarity(kitten, sitting); !almost(got, 1-3.0/7.0) {
		t.Errorf("kitten/sitting = %v, want %v", got, 1-3.0/7.0)
	}
	if got := EditSimilarity(nil, []int{1, 2}); !almost(got, 0) {
		t.Errorf("empty vs nonempty = %v, want 0", got)
	}
}

func TestEditSimilarityProperties(t *testing.T) {
	f := func(a, b []int8) bool {
		x := make([]int, len(a))
		for i, v := range a {
			x[i] = int(v)
		}
		y := make([]int, len(b))
		for i, v := range b {
			y[i] = int(v)
		}
		s1 := EditSimilarity(x, y)
		s2 := EditSimilarity(y, x)
		return almost(s1, s2) && s1 >= 0 && s1 <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestExactMatchPrefix(t *testing.T) {
	if got := ExactMatchPrefix([]int{1, 2, 3}, []int{1, 9, 3}); !almost(got, 2.0/3.0) {
		t.Errorf("prefix = %v", got)
	}
	if got := ExactMatchPrefix(nil, nil); !almost(got, 1) {
		t.Errorf("empty = %v", got)
	}
	if got := ExactMatchPrefix(nil, []int{1}); !almost(got, 0) {
		t.Errorf("empty vs nonempty = %v", got)
	}
}

func TestMeanRatio(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); !almost(got, 2) {
		t.Errorf("Mean = %v", got)
	}
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %v", got)
	}
	if got := Ratio(3, 4); !almost(got, 0.75) {
		t.Errorf("Ratio = %v", got)
	}
	if got := Ratio(3, 0); got != 0 {
		t.Errorf("Ratio by zero = %v", got)
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	if got := Percentile(xs, 0); !almost(got, 1) {
		t.Errorf("p0 = %v", got)
	}
	if got := Percentile(xs, 1); !almost(got, 5) {
		t.Errorf("p100 = %v", got)
	}
	if got := Percentile(xs, 0.5); !almost(got, 3) {
		t.Errorf("p50 = %v", got)
	}
	if got := Percentile(xs, 0.25); !almost(got, 2) {
		t.Errorf("p25 = %v", got)
	}
	if got := Percentile(nil, 0.5); got != 0 {
		t.Errorf("empty = %v", got)
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestPercentileMonotone(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		rng := rand.New(rand.NewSource(1))
		p1, p2 := rng.Float64(), rng.Float64()
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Percentile(xs, p1) <= Percentile(xs, p2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEditSimilarity(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := make([]int, 300)
	y := make([]int, 300)
	for i := range x {
		x[i] = rng.Intn(100)
		y[i] = rng.Intn(100)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		EditSimilarity(x, y)
	}
}

func TestNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct {
		p    float64
		want float64
	}{{0, 1}, {0.2, 1}, {0.5, 3}, {0.9, 5}, {0.99, 5}, {1, 5}}
	for _, c := range cases {
		if got := NearestRank(xs, c.p); got != c.want {
			t.Errorf("NearestRank(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := NearestRank(nil, 0.5); got != 0 {
		t.Errorf("NearestRank(nil) = %v, want 0", got)
	}
	// The input slice must not be reordered.
	if xs[0] != 5 || xs[4] != 3 {
		t.Errorf("NearestRank mutated its input: %v", xs)
	}
	s := Summarize(xs)
	if s.P50 != 3 || s.P90 != 5 || s.P99 != 5 {
		t.Errorf("Summarize = %+v", s)
	}
}

// TestRingWraps fills a Ring past RingSize: it keeps exactly the newest
// RingSize samples, overwriting the oldest first, and a snapshot is a
// copy the ring's later writes cannot reach.
func TestRingWraps(t *testing.T) {
	var r Ring
	for i := 0; i < RingSize; i++ {
		r.Add(float64(i))
	}
	full := r.Snapshot()
	if len(full) != RingSize || full[0] != 0 || full[RingSize-1] != RingSize-1 {
		t.Fatalf("full ring: len %d, first %v, last %v", len(full), full[0], full[RingSize-1])
	}
	const extra = 3
	for i := RingSize; i < RingSize+extra; i++ {
		r.Add(float64(i))
	}
	got := r.Snapshot()
	if len(got) != RingSize {
		t.Fatalf("wrapped ring holds %d samples, want %d", len(got), RingSize)
	}
	for i := 0; i < extra; i++ {
		if got[i] != float64(RingSize+i) {
			t.Fatalf("slot %d = %v, want the newest sample %d", i, got[i], RingSize+i)
		}
	}
	if got[extra] != extra {
		t.Fatalf("slot %d = %v, want the oldest survivor %d", extra, got[extra], extra)
	}
	if full[0] != 0 {
		t.Fatal("a snapshot shares memory with the ring")
	}
	if s := Summarize(got); s.P50 != float64(extra+RingSize/2-1) || s.P99 == 0 {
		t.Fatalf("summary of the wrapped ring: %+v", s)
	}
}
