package quant

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/tensor"
)

// The tests in this file hold the quantizer's vector kernels to the
// scalar loops bit for bit. Off amd64 (or without AVX2) both sides run
// the scalar loops and the tests check only the partition bookkeeping.

// sameTensor fails unless got and want hold the same codes and sums and
// bit-identical Min and Scale.
func sameTensor(t *testing.T, what string, got, want *Tensor) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols || got.NBlocks != want.NBlocks {
		t.Fatalf("%s: shape %dx%d/%d blocks, want %dx%d/%d", what, got.Rows, got.Cols, got.NBlocks, want.Rows, want.Cols, want.NBlocks)
	}
	for i, c := range want.Codes {
		if got.Codes[i] != c {
			t.Fatalf("%s: code %d = %d, want %d", what, i, got.Codes[i], c)
		}
	}
	for i := range want.Min {
		if math.Float32bits(got.Min[i]) != math.Float32bits(want.Min[i]) {
			t.Fatalf("%s: min %d = %v (%#x), want %v (%#x)", what, i, got.Min[i], math.Float32bits(got.Min[i]), want.Min[i], math.Float32bits(want.Min[i]))
		}
		if math.Float32bits(got.Scale[i]) != math.Float32bits(want.Scale[i]) {
			t.Fatalf("%s: scale %d = %v (%#x), want %v (%#x)", what, i, got.Scale[i], math.Float32bits(got.Scale[i]), want.Scale[i], math.Float32bits(want.Scale[i]))
		}
		if got.Sums[i] != want.Sums[i] {
			t.Fatalf("%s: sum %d = %d, want %d", what, i, got.Sums[i], want.Sums[i])
		}
	}
}

// referenceQuantize is the quantizer written out element by element from
// the scalar loops: each partition's elements fold into minMaxScalar in
// axis order, then each is rounded by rounder.code with the counter of
// its absolute position.
func referenceQuantize(m *tensor.Matrix, axis Axis, cfg Config) *Tensor {
	r := rounder{stochastic: cfg.Rounding == StochasticRounding, key: cfg.Key, row0: cfg.Row0,
		maxCode: float64(int(1)<<cfg.Bits - 1)}
	t := &Tensor{Rows: m.Rows, Cols: m.Cols, Axis: axis, Bits: cfg.Bits, Pi: cfg.Partition}
	t.NBlocks = (t.axisLen() + cfg.Partition - 1) / cfg.Partition
	nmeta := t.numVectors() * t.NBlocks
	t.Codes = make([]uint8, m.Rows*m.Cols)
	t.Min, t.Scale, t.Sums = make([]float32, nmeta), make([]float32, nmeta), make([]int32, nmeta)
	for v := 0; v < t.numVectors(); v++ {
		for b := 0; b < t.NBlocks; b++ {
			lo, hi := t.BlockRange(b)
			at := func(k int) (row, col int) {
				if axis == AlongCols {
					return v, k
				}
				return k, v
			}
			minV, maxV := float32(math.Inf(1)), float32(math.Inf(-1))
			for k := lo; k < hi; k++ {
				i, j := at(k)
				minV, maxV = minMaxScalar(m.Data[i*m.Cols+j:], 1, 1, minV, maxV)
			}
			minV, scale := r.meta(minV, maxV)
			var sum int32
			for k := lo; k < hi; k++ {
				i, j := at(k)
				code := r.code(m.At(i, j), minV, scale, counter(r.key, r.row0+i, j))
				t.Codes[i*m.Cols+j] = code
				sum += int32(code)
			}
			mi := t.metaIndex(v, b)
			t.Min[mi], t.Scale[mi], t.Sums[mi] = minV, scale, sum
		}
	}
	return t
}

var negZero = float32(math.Copysign(0, -1))

// flavors fill a matrix with one kind of partition each.
var flavors = []struct {
	name string
	val  func(rng *rand.Rand) float32
}{
	{"normal", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64()) }},
	// NaN never enters a min or max; ±Inf make the scale infinite and
	// the quotients NaN.
	{"specials", func(rng *rand.Rand) float32 {
		switch rng.Intn(12) {
		case 0:
			return float32(math.NaN())
		case 1:
			return float32(math.Inf(1))
		case 2:
			return float32(math.Inf(-1))
		case 3:
			return 0
		case 4:
			return negZero
		}
		return float32(rng.NormFloat64())
	}},
	// Attention probabilities past the diagonal: non-negative with
	// zeros of both signs, so the min is a zero whose sign only the
	// order of the elements decides.
	{"zeros", func(rng *rand.Rand) float32 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return rng.Float32()
	}},
	// Every element ±0: a degenerate partition whose stored min and scale
	// carry the first zero's sign.
	{"signed zeros", func(rng *rand.Rand) float32 {
		if rng.Intn(2) == 0 {
			return 0
		}
		return negZero
	}},
	// Non-positive with zeros of both signs: a zero max.
	{"zero max", func(rng *rand.Rand) float32 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return negZero
		}
		return -rng.Float32()
	}},
	{"constant", func(*rand.Rand) float32 { return 1.5 }},
	// A range wider than FP16 holds: an infinite scale.
	{"huge", func(rng *rand.Rand) float32 { return float32(rng.NormFloat64() * 1e5) }},
	// Values of one sign near a partition's FP16-rounded min, where the
	// clamps act.
	{"offset", func(rng *rand.Rand) float32 { return 1000 + float32(rng.NormFloat64()) }},
}

func flavorMatrix(rng *rand.Rand, rows, cols, flavor int) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = flavors[flavor].val(rng)
	}
	return m
}

// simdKeys and simdRow0s are stream keys (two near the 2⁶⁴ wrap) and
// first-row positions (two past 2²⁰, so the row<<32 counter term
// matters; the last past 2³² on 64-bit platforms and near the int limit
// on 32-bit ones) the differential tests cycle through.
var (
	simdKeys  = []uint64{StreamKeys(1).P, math.MaxUint64, math.MaxUint64 - 7, 0x51}
	simdRow0s = []int{0, 5, 1<<20 + 3, min(1<<33+7, math.MaxInt-1<<20)}
)

// TestSIMDMatchesScalar runs the quantizer against referenceQuantize on
// both axes, bits 1, 2, 4 and 8, both rounding modes, partitions of 1
// to 130 elements (whole and ragged, so every vector width and tail
// length appears), and every flavor of partition.
func TestSIMDMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for L := 1; L <= 130; L++ {
		for bi, bits := range []int{1, 2, 4, 8} {
			for f := range flavors {
				sel := L + bi + f
				cfg := Config{Bits: bits, Partition: L, Rounding: Rounding(sel % 2),
					Key: simdKeys[sel%len(simdKeys)], Row0: simdRow0s[(sel/2)%len(simdRow0s)]}
				if sel%3 == 0 {
					cfg.Partition = 64 // several partitions, the last one ragged
				}
				name := fmt.Sprintf("L=%d bits=%d %s %+v", L, bits, flavors[f].name, cfg)

				m := flavorMatrix(rng, 3, L, f)
				got, err := Quantize(m, AlongCols, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameTensor(t, "along-cols "+name, got, referenceQuantize(m, AlongCols, cfg))

				// Along rows the lanes run across columns: widths below,
				// at and past one vector, and past one scratch chunk.
				cols := []int{3, 8, 19, 70}[sel%4]
				m = flavorMatrix(rng, L, cols, f)
				got, err = Quantize(m, AlongRows, cfg)
				if err != nil {
					t.Fatal(err)
				}
				sameTensor(t, fmt.Sprintf("along-rows cols=%d %s", cols, name), got, referenceQuantize(m, AlongRows, cfg))
			}
		}
	}
}

// TestSIMDClampMatchesScalar drives the encoders with partitions' mins
// and scales perturbed so that quotients fall below 0 and above 2^b−1,
// and with non-positive and NaN scales (degenerate partitions), on both
// axes.
func TestSIMDClampMatchesScalar(t *testing.T) {
	perturb := []struct{ shift, stretch float32 }{{1, 1}, {-1, 1}, {0, 0.5}, {2, 0.25}, {-3, 0.4}, {0, 0}}
	inf, ninf := float32(math.Inf(1)), float32(math.Inf(-1))
	rng := rand.New(rand.NewSource(2))
	for L := 1; L <= 130; L++ {
		for _, bits := range []int{1, 2, 4, 8} {
			for _, stochastic := range []bool{true, false} {
				r := rounder{stochastic: stochastic, key: simdKeys[L%len(simdKeys)], maxCode: float64(int(1)<<bits - 1)}
				row0 := simdRow0s[L%len(simdRow0s)]
				what := fmt.Sprintf("L=%d bits=%d stochastic=%v", L, bits, stochastic)

				// Along columns: one partition of L elements per
				// perturbation, end to end. Each scale is taken over a
				// range one wider than the partition's, so that it is
				// positive before the perturbation.
				nb := len(perturb)
				x := flavorMatrix(rng, 1, nb*L, 0).Data
				mins, scales, hs := make([]float32, nb), make([]float32, nb), make([]uint64, nb)
				for k, p := range perturb {
					minV, maxV := minMaxScalar(x[k*L:], L, 1, inf, ninf)
					minV, scale := r.meta(minV, maxV+1)
					mins[k], scales[k] = minV+p.shift*scale, scale*p.stretch
					hs[k] = counter(r.key, row0+k, 0)
				}
				got, want := make([]uint8, nb*L), make([]uint8, nb*L)
				gs, ws := make([]int32, nb), make([]int32, nb)
				r.encodeCols(got, x, mins, scales, hs, gs, L)
				r.encodeColsScalar(want, x, mins, scales, hs, ws, L, 0)
				if string(got) != string(want) || fmt.Sprint(gs) != fmt.Sprint(ws) {
					t.Fatalf("along-cols %s: codes %v sums %v, want %v sums %v", what, got, gs, want, ws)
				}

				// Along rows: 19 columns, each with its own perturbation;
				// column 5 degenerate (a NaN scale, as quantizeRows
				// passes one).
				const cols = 19
				m := flavorMatrix(rng, L, cols, 0)
				var cmins, cmaxs, cscales [cols]float32
				minMaxRowsScalar(cmins[:], cmaxs[:], m.Data, L, cols, 0)
				for c := range cmins {
					p := perturb[c%(nb-1)]
					minV, scale := r.meta(cmins[c], cmaxs[c]+1)
					cmins[c], cscales[c] = minV+p.shift*scale, scale*p.stretch
				}
				cscales[5] = float32(math.NaN())
				h := counter(r.key, row0, 0)
				rgot, rwant := make([]uint8, L*cols), make([]uint8, L*cols)
				var rgs, rws [cols]int32
				r.encodeRows(rgot, m.Data, cmins[:], cscales[:], rgs[:], L, cols, h)
				r.encodeRowsScalar(rwant, m.Data, cmins[:], cscales[:], rws[:], L, cols, h, 0)
				if string(rgot) != string(rwant) || rgs != rws {
					t.Fatalf("along-rows %s: codes %v sums %v, want %v sums %v", what, rgot, rgs, rwant, rws)
				}
			}
		}
	}
}

// TestSIMDZeroSignFirstWins places one +0 and one −0 at every pair of
// positions of partitions of 8 to 40 otherwise-positive (min) or
// otherwise-negative (max) elements, and the sweep must keep the first
// zero as the scalar loop does: the lanes alone would not know which of
// the two came first.
func TestSIMDZeroSignFirstWins(t *testing.T) {
	inf, ninf := float32(math.Inf(1)), float32(math.Inf(-1))
	for _, L := range []int{8, 9, 16, 24, 40} {
		for _, sign := range []float32{1, -1} {
			x := make([]float32, L)
			for a := 0; a < L; a++ {
				for b := 0; b < L; b++ {
					if a == b {
						continue
					}
					for k := range x {
						x[k] = sign * float32(k+1)
					}
					x[a], x[b] = 0, negZero
					got := [2][]float32{{inf}, {ninf}}
					minMaxCols(got[0], got[1], x, L)
					wmin, wmax := minMaxScalar(x, L, 1, inf, ninf)
					if math.Float32bits(got[0][0]) != math.Float32bits(wmin) || math.Float32bits(got[1][0]) != math.Float32bits(wmax) {
						t.Fatalf("L=%d +0 at %d, −0 at %d, sign %v: (min, max) bits (%#x, %#x), want (%#x, %#x)",
							L, a, b, sign, math.Float32bits(got[0][0]), math.Float32bits(got[1][0]), math.Float32bits(wmin), math.Float32bits(wmax))
					}
				}
			}
		}
	}
}
