package tensor

import (
	"flag"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

var expExhaustive = flag.Bool("exp.exhaustive", false,
	"check Exp and SiLU against math.Exp on every float32 input (about a minute per core)")

// expWant is the float32 exponential softmax rounds to, by math.Exp.
func expWant(x float32) float32 { return float32(math.Exp(float64(x))) }

// siluWant is SiLU's element by math.Exp.
func siluWant(v float32) float32 { return v / float32(1+math.Exp(float64(-v))) }

// sameFloat reports whether a and b are the same float32 bits, or both NaN.
func sameFloat(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// expChecker holds one chunk of inputs and checks both forms of the
// exp-shift and SiLU kernels against math.Exp on it: the pure-Go loops
// (expSumFrom, siluFrom) and the dispatching ones (expSum, silu),
// which run the AVX2 lanes where the CPU has them.
type expChecker struct{ in, scalar, vec []float32 }

func newExpChecker(n int) *expChecker {
	return &expChecker{in: make([]float32, n), scalar: make([]float32, n), vec: make([]float32, n)}
}

// check fails t on the first input of c.in whose softmax exp (when it
// lies in softmaxDomain) or SiLU element differs from math.Exp's, in
// either form.
func (c *expChecker) check(t *testing.T) {
	t.Helper()
	copy(c.scalar, c.in)
	copy(c.vec, c.in)
	expSumFrom(c.scalar, 0, 0)
	expSum(c.vec, 0) // x − 0 is x for every x ≠ −0, and Exp(±0) = 1
	for j, x := range c.in {
		if !softmaxDomain(x) {
			continue
		}
		if w := expWant(x); !sameFloat(c.scalar[j], w) || !sameFloat(c.vec[j], w) {
			t.Errorf("exp(%v) [%#08x]: pure Go %v, dispatched %v, math.Exp %v",
				x, math.Float32bits(x), c.scalar[j], c.vec[j], w)
			return
		}
	}
	copy(c.scalar, c.in)
	copy(c.vec, c.in)
	siluFrom(c.scalar)
	silu(c.vec)
	for j, v := range c.in {
		if v != v {
			continue
		}
		if w := siluWant(v); !sameFloat(c.scalar[j], w) || !sameFloat(c.vec[j], w) {
			t.Errorf("silu(%v) [%#08x]: pure Go %v, dispatched %v, math.Exp %v",
				v, math.Float32bits(v), c.scalar[j], c.vec[j], w)
			return
		}
	}
}

// softmaxDomain is the input range of a softmax exp the exactness
// contract covers: every v − max of a row, which is ≤ 0, and at which
// float32(exp) is 0 below −104.
func softmaxDomain(x float32) bool { return x >= -104 && x < 0 }

// TestExpExhaustive checks Exp in both forms against math.Exp on every
// non-NaN float32 in [−104, 0), after rounding to float32, and SiLU's
// element v / float32(1+exp(−v)) on every non-NaN float32. It is the
// check behind the package's exactness contract; run it with
//
//	go test -run TestExpExhaustive -exp.exhaustive -timeout 30m ./internal/tensor
func TestExpExhaustive(t *testing.T) {
	if !*expExhaustive {
		t.Skip("run with -exp.exhaustive")
	}
	const chunk = 1 << 16
	const chunks = (1 << 32) / chunk
	workers := runtime.GOMAXPROCS(0)
	next := make(chan uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newExpChecker(chunk)
			for lo := range next {
				for j := range c.in {
					c.in[j] = math.Float32frombits(uint32(lo) + uint32(j))
				}
				c.check(t)
			}
		}()
	}
	for i := uint64(0); i < chunks && !t.Failed(); i++ {
		next <- i * chunk
	}
	close(next)
	wg.Wait()
}

// expSample returns the stratified inputs the Tier-1 exp test runs: for
// every float32 exponent and both signs, the extreme and some random
// mantissas; the neighbours of the cut-offs (the 2⁻²⁸ near-zero branch,
// the vector domain's ±104, float32 exp's −103.97 round-to-zero point,
// the 88.72 float32 overflow, float64 exp's 709.78 and −745.13); ±0,
// ±Inf and subnormals.
func expSample() []float32 {
	rng := rand.New(rand.NewSource(44))
	var xs []float32
	for e := uint32(0); e < 256; e++ {
		for _, sign := range []uint32{0, 1 << 31} {
			mants := []uint32{0, 1, 1<<23 - 1, 1 << 22}
			for i := 0; i < 12; i++ {
				mants = append(mants, uint32(rng.Intn(1<<23)))
			}
			for _, m := range mants {
				if e == 255 && m != 0 {
					continue // NaN
				}
				xs = append(xs, math.Float32frombits(sign|e<<23|m))
			}
		}
	}
	for _, c := range []float64{0x1p-28, 104, 103.97207708, 103.27892990, 88.72283905, 709.782712893384, 745.1332191019411} {
		for _, s := range []float64{1, -1} {
			x := float32(s * c)
			xs = append(xs, x, math.Nextafter32(x, float32(math.Inf(1))), math.Nextafter32(x, float32(math.Inf(-1))))
		}
	}
	return xs
}

// TestExpSample is TestExpExhaustive on a stratified sample, and also
// holds the dispatched exp-shift kernel to the pure-Go loop bit for bit
// on every sampled input, in and out of the softmax domain, at every
// position within a vector group.
func TestExpSample(t *testing.T) {
	xs := expSample()
	c := newExpChecker(len(xs))
	copy(c.in, xs)
	c.check(t)

	for shift := 0; shift < 4; shift++ {
		in := append(make([]float32, shift), xs...)
		scalar := append([]float32(nil), in...)
		vec := append([]float32(nil), in...)
		wantSum := expSumFrom(scalar, 0, 0)
		if sum := expSum(vec, 0); !sameFloat(sum, wantSum) {
			t.Fatalf("shift %d: dispatched sum %v, pure Go %v", shift, sum, wantSum)
		}
		for j := range in {
			if math.Float32bits(vec[j]) != math.Float32bits(scalar[j]) {
				t.Fatalf("shift %d: exp(%v): dispatched %v, pure Go %v", shift, in[j], vec[j], scalar[j])
			}
		}
	}
	if Exp(0) != 1 || Exp(math.Inf(-1)) != 0 || !math.IsInf(Exp(math.Inf(1)), 1) || !math.IsNaN(Exp(math.NaN())) {
		t.Errorf("special cases: Exp(0)=%v Exp(-Inf)=%v Exp(+Inf)=%v Exp(NaN)=%v",
			Exp(0), Exp(math.Inf(-1)), Exp(math.Inf(1)), Exp(math.NaN()))
	}
}

// softmaxRowRef is the softmax row loop the vector kernels must
// reproduce: scalar max, exp and normalize by math.Exp.
func softmaxRowRef(row []float32) {
	maxv := float32(math.Inf(-1))
	for _, v := range row {
		if v > maxv {
			maxv = v
		}
	}
	var sum float32
	for j, v := range row {
		e := float32(math.Exp(float64(v - maxv)))
		row[j] = e
		sum += e
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for j := range row {
		row[j] *= inv
	}
}

// TestSoftmaxRowMatchesScalarBits holds softmaxRow to the scalar loop
// bit for bit on every row length from 0 (the zero sum) through 67, so
// every tail of the eight- and four-lane passes, on random rows and on
// rows holding a NaN, all −∞, ±0 ties for the maximum, a maximum in the
// tail, and a lane below the vector exp's domain.
func TestSoftmaxRowMatchesScalarBits(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	negZero := float32(math.Copysign(0, -1))
	inf := float32(math.Inf(1))
	kinds := []struct {
		name string
		fill func(row []float32)
	}{
		{"random", func(row []float32) {}},
		{"nan", func(row []float32) { row[rng.Intn(len(row))] = float32(math.NaN()) }},
		{"all -inf", func(row []float32) {
			for j := range row {
				row[j] = -inf
			}
		}},
		{"±0 max ties", func(row []float32) {
			for j := range row {
				row[j] = -float32(rng.ExpFloat64())
				if rng.Intn(3) == 0 {
					row[j] = 0
					if rng.Intn(2) == 0 {
						row[j] = negZero
					}
				}
			}
		}},
		{"max in the tail", func(row []float32) { row[len(row)-1] = 50 }},
		{"below the domain", func(row []float32) { row[rng.Intn(len(row))] = -300 }},
		{"-inf lane", func(row []float32) { row[rng.Intn(len(row))] = -inf }},
	}
	for n := 0; n <= 67; n++ {
		for _, k := range kinds {
			if n == 0 && k.name != "random" {
				continue
			}
			row := make([]float32, n)
			for j := range row {
				row[j] = float32(rng.NormFloat64() * 4)
			}
			k.fill(row)
			want := append([]float32(nil), row...)
			softmaxRowRef(want)
			softmaxRow(row)
			for j := range row {
				if math.Float32bits(row[j]) != math.Float32bits(want[j]) {
					t.Fatalf("n=%d %s: element %d = %v, want %v", n, k.name, j, row[j], want[j])
				}
			}
		}
	}
}

// TestSiLUMatchesScalarBits holds SiLU to the model's former element
// loop, v / float32(1+math.Exp(−v)), on a served-shape activation matrix
// with every tail length, and on special values.
func TestSiLUMatchesScalarBits(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for _, n := range []int{0, 1, 3, 4, 5, 7, 8, 9, 394 * 128} {
		m := RandNormal(rng, 1, n, 3)
		if n >= 9 {
			m.Data[0], m.Data[5] = float32(math.Inf(-1)), float32(math.NaN())
			m.Data[6], m.Data[7] = 200, -200
		}
		want := make([]float32, n)
		for j, v := range m.Data {
			want[j] = siluWant(v)
		}
		SiLU(m)
		for j, v := range m.Data {
			if !sameFloat(v, want[j]) {
				t.Fatalf("n=%d: element %d = %v, want %v", n, j, v, want[j])
			}
		}
	}
}
