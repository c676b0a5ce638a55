package quant

import (
	"math"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/tensor"
)

// rows copies rows [lo, hi) of m, widened to cols columns: columns past
// m's own are filled from rng, so they form partitions of their own.
func rows(m *tensor.Matrix, lo, hi, cols int, rng *rand.Rand) *tensor.Matrix {
	out := tensor.New(hi-lo, cols)
	for i := lo; i < hi; i++ {
		copy(out.Row(i-lo), m.Row(i))
		for j := m.Cols; j < cols; j++ {
			out.Row(i - lo)[j] = float32(rng.NormFloat64())
		}
	}
	return out
}

// TestKeyedRoundingPositionStable pins the property prefix pages and
// the KV wire rest on: under stochastic rounding
// the code of element (r, c) depends only on the stream key, its
// absolute position and its partition's values — not on how many rows
// the quantized matrix has, where it starts, or how many further
// partitions sit beside it.
func TestKeyedRoundingPositionStable(t *testing.T) {
	const nrows, ncols, pi = 24, 16, 8
	rng := rand.New(rand.NewSource(1))
	m := tensor.RandNormal(rng, nrows, ncols, 1)
	key := StreamKeys(42).K
	for _, axis := range []Axis{AlongCols, AlongRows} {
		full := MustQuantize(m, axis, Config{Bits: 2, Partition: pi, Key: key})
		step := 1
		if axis == AlongRows {
			step = pi // V partitions run down the rows: spans stay aligned
		}
		for lo := 0; lo < nrows; lo += step {
			for hi := lo + step; hi <= nrows; hi += step {
				for _, cols := range []int{ncols, ncols + pi} {
					part := MustQuantize(rows(m, lo, hi, cols, rng), axis,
						Config{Bits: 2, Partition: pi, Key: key, Row0: lo})
					for i := lo; i < hi; i++ {
						for j := 0; j < ncols; j++ {
							if got, want := part.Code(i-lo, j), full.Code(i, j); got != want {
								t.Fatalf("%v rows [%d,%d) width %d: code (%d,%d) = %d, full matrix %d",
									axis, lo, hi, cols, i, j, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// roundingErrors quantizes a 1000×1000 matrix (10⁶ elements, INT2,
// Π=64) under stochastic rounding with the given stream key and returns
// each element's rounding error in code units — code − q for the
// element's clamped fractional code q under the stored metadata — and
// the exact variance of stochastic rounding summed over the elements,
// Σ f(1−f) with f = q − ⌊q⌋. A non-nil seq re-rounds every element from
// q instead, drawing seq.Float64 once per fractional element in
// row-major order: rounding driven by one sequential stream.
func roundingErrors(key uint64, seq *rand.Rand) (errs []float64, wantVar float64) {
	const n, pi = 1000, 64
	m := tensor.RandNormal(rand.New(rand.NewSource(5)), n, n, 1)
	qt := MustQuantize(m, AlongCols, Config{Bits: 2, Partition: pi, Key: key})
	errs = make([]float64, 0, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			minV, scale := qt.Meta(i, j/pi)
			q := math.Min(math.Max(float64(m.At(i, j)-minV)/float64(scale), 0), 3)
			fl := math.Floor(q)
			f := q - fl
			wantVar += f * (1 - f)
			code := float64(qt.Code(i, j))
			if seq != nil {
				code = fl
				if f > 0 && seq.Float64() < f {
					code++
				}
			}
			errs = append(errs, code-q)
		}
	}
	return errs, wantVar
}

func meanVar(xs []float64) (mean, variance float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	return mean, variance / float64(len(xs))
}

// TestKeyedRoundingUnbiased checks the zero-mean error law of §5.2 over
// 10⁶ elements: the mean rounding error is zero within 3σ, σ being the
// exact standard error of the mean under stochastic rounding.
func TestKeyedRoundingUnbiased(t *testing.T) {
	errs, wantVar := roundingErrors(StreamKeys(3).V, nil)
	mean, _ := meanVar(errs)
	sigma := math.Sqrt(wantVar) / float64(len(errs))
	if math.Abs(mean) > 3*sigma {
		t.Fatalf("mean rounding error %.3g over %d elements, want |mean| <= 3σ = %.3g", mean, len(errs), 3*sigma)
	}
}

// TestKeyedRoundingMatchesSequentialStream is the distribution check
// against rounding driven by one sequential generator stream: over the
// same 10⁶ elements, the keyed rounding's per-element error variance
// matches that stream's, and the exact Σ f(1−f)/n, within 5%.
func TestKeyedRoundingMatchesSequentialStream(t *testing.T) {
	keyedErrs, wantVar := roundingErrors(StreamKeys(3).P, nil)
	seqErrs, _ := roundingErrors(StreamKeys(3).P, rand.New(rand.NewSource(9)))
	_, keyed := meanVar(keyedErrs)
	_, seq := meanVar(seqErrs)
	exact := wantVar / float64(len(keyedErrs))
	for name, v := range map[string]float64{"sequential stream": seq, "exact": exact} {
		if math.Abs(keyed-v) > 0.05*v {
			t.Errorf("keyed error variance %.5f vs %s %.5f: more than 5%% apart", keyed, name, v)
		}
	}
}

// TestStreamKeysDistinct checks that the four operand keys of a seed
// are distinct, set, and seed-specific.
func TestStreamKeysDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for seed := int64(-2); seed <= 2; seed++ {
		k := StreamKeys(seed)
		for _, key := range []uint64{k.K, k.V, k.Q, k.P} {
			if key == 0 || seen[key] {
				t.Fatalf("seed %d: key %#x unset or repeated", seed, key)
			}
			seen[key] = true
		}
	}
}
