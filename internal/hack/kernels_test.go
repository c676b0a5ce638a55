package hack

import (
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/cpufeat"
	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// The packed/tiled/parallel kernels must be bit-identical to the retained
// scalar reference on every shape — including ragged blocks (Π not
// dividing Z), degenerate Z=0 and 1×1 operands — at every parallelism
// level and bit-width pairing (the AVX2 dot dispatches on bits; 8×8 falls
// back to pure Go, low-bit A exercises the swapped signed lane). CI runs
// this under -race, which also proves the row/column tile fan-out never
// writes overlapping output.
func TestFastKernelsMatchScalarReference(t *testing.T) {
	shapes := []struct{ m, z, n, pi int }{
		{1, 1, 1, 8}, // minimal
		{1, 128, 4096, 32} /* decode Q·Kᵀ shaped */, {1, 128, 4096, 128},
		{256, 512, 128, 64}, // prefill shaped, parallel over rows
		{3, 100, 33, 32},    // odd M/Z/N, Π not dividing Z
		{7, 65, 9, 64},      // single ragged block
		{2, 0, 5, 16},       // Z=0
		{5, 33, 1, 8},       // N=1
		{1, 200, 1300, 16},  // parallel over columns (M < workers)
		{1, 32, 1024, 64},   // served decode: d_h 32 is one partial partition
		{5, 64, 300, 128},   // multi-row groups over one partial partition
		{1, 1024, 40, 64},   // decode P·V: paired rows plus a column tail
		{3, 131, 97, 64},    // odd partition lengths: an unpaired last row
		{40, 32, 1001, 64},  // row-outer over one partial partition, ragged N
		{2, 97, 32, 64},     // whole-width pairs with an unpaired last row
	}
	bitCombos := []struct{ aBits, bBits int }{{8, 2}, {8, 8}, {2, 8}, {4, 4}}
	for _, sh := range shapes {
		for _, bits := range bitCombos {
			rng := rand.New(rand.NewSource(int64(sh.m*1000 + sh.z*10 + sh.n + bits.aBits)))
			a := tensor.RandNormal(rng, sh.m, sh.z, 1)
			b := tensor.RandNormal(rng, sh.z, sh.n, 1)
			bT := tensor.RandNormal(rng, sh.n, sh.z, 1)
			aq := q(a, quant.AlongCols, bits.aBits, sh.pi, rng)
			bq := q(b, quant.AlongRows, bits.bBits, sh.pi, rng)
			bTq := q(bT, quant.AlongCols, bits.bBits, sh.pi, rng)
			for _, se := range []bool{true, false} {
				wantMM, wantOpsMM := MatMulScalar(aq, bq, Options{ReuseSums: se})
				wantTB, wantOpsTB := MatMulTransBScalar(aq, bTq, Options{ReuseSums: se})
				for _, par := range []int{-1, 0, 1, 2, 5} {
					opt := Options{ReuseSums: se, Parallelism: par}
					got, ops := MatMul(aq, bq, opt)
					if d := tensor.MaxAbsDiff(got, wantMM); d != 0 {
						t.Errorf("MatMul %+v bits=%+v se=%v par=%d: diff %v from scalar", sh, bits, se, par, d)
					}
					if ops != wantOpsMM {
						t.Errorf("MatMul %+v se=%v par=%d: ops %+v != scalar %+v", sh, se, par, ops, wantOpsMM)
					}
					gotTB, opsTB := MatMulTransB(aq, bTq, opt)
					if d := tensor.MaxAbsDiff(gotTB, wantTB); d != 0 {
						t.Errorf("MatMulTransB %+v bits=%+v se=%v par=%d: diff %v from scalar", sh, bits, se, par, d)
					}
					if opsTB != wantOpsTB {
						t.Errorf("MatMulTransB %+v se=%v par=%d: ops %+v != scalar %+v", sh, se, par, opsTB, wantOpsTB)
					}
				}
			}
		}
	}
}

// MatMulInto must reshape and fully overwrite its destination, so a
// buffer cycled through different shapes never leaks stale values.
func TestMatMulIntoReusesDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	dst := &tensor.Matrix{}
	dstT := &tensor.Matrix{}
	for _, sh := range []struct{ m, z, n int }{{4, 64, 12}, {2, 32, 5}, {6, 96, 20}, {1, 0, 3}} {
		a := tensor.RandNormal(rng, sh.m, sh.z, 1)
		b := tensor.RandNormal(rng, sh.z, sh.n, 1)
		bT := tensor.RandNormal(rng, sh.n, sh.z, 1)
		aq := q(a, quant.AlongCols, 8, 32, rng)
		bq := q(b, quant.AlongRows, 2, 32, rng)
		bTq := q(bT, quant.AlongCols, 2, 32, rng)

		ops := MatMulInto(dst, aq, bq, DefaultOptions())
		want, wantOps := MatMulScalar(aq, bq, DefaultOptions())
		if d := tensor.MaxAbsDiff(dst, want); d != 0 {
			t.Errorf("%+v: MatMulInto diff %v", sh, d)
		}
		if ops != wantOps {
			t.Errorf("%+v: MatMulInto ops %+v != %+v", sh, ops, wantOps)
		}

		MatMulTransBInto(dstT, aq, bTq, DefaultOptions())
		wantT, _ := MatMulTransBScalar(aq, bTq, DefaultOptions())
		if d := tensor.MaxAbsDiff(dstT, wantT); d != 0 {
			t.Errorf("%+v: MatMulTransBInto diff %v", sh, d)
		}
	}
}

// The steady-state Into path must not allocate: operands stay fixed, the
// destination and the pooled kernel scratch are reused.
func TestMatMulIntoSteadyStateAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	aq := q(tensor.RandNormal(rng, 1, 128, 1), quant.AlongCols, 8, 64, rng)
	kq := q(tensor.RandNormal(rng, 512, 128, 1), quant.AlongCols, 2, 64, rng)
	dst := &tensor.Matrix{}
	opt := Options{ReuseSums: true, Parallelism: 1} // serial: fan-out spawns goroutines
	MatMulTransBInto(dst, aq, kq, opt)              // warm the buffers
	avg := testing.AllocsPerRun(50, func() {
		MatMulTransBInto(dst, aq, kq, opt)
	})
	if avg > 0.5 {
		t.Errorf("steady-state MatMulTransBInto allocates %.1f times per call, want 0", avg)
	}
}

// sweepPairs must equal the scalar sweep it replaces — acc[j] +=
// Σ p[k]·v[k·stride+j] — for every code width pairing maddFor sends
// it, including all-maximum codes, whose pair sums come closest to the
// int16 saturation bound and whose runs come closest to the uint16 one.
// It also covers a stride wider than the swept columns, a single pair,
// and runs that do not divide the pair count.
func TestSweepPairsMatchesScalarLoop(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2")
	}
	rng := rand.New(rand.NewSource(12))
	for _, bits := range []struct{ a, b int }{{8, 2}, {8, 6}, {6, 8}, {2, 8}, {4, 4}, {1, 1}} {
		mode := maddFor(bits.a, bits.b)
		if mode == maddOff {
			t.Fatalf("bits %+v: no MADD mode", bits)
		}
		run := pairRun(bits.a, bits.b)
		for _, sh := range []struct{ pairs, cols, stride int }{{1, 32, 32}, {32, 32, 32}, {32, 64, 80}, {45, 96, 96}, {200, 32, 40}} {
			for _, maxed := range []bool{false, true} {
				rows := 2 * sh.pairs
				p := make([]uint8, rows)
				v := make([]uint8, rows*sh.stride)
				for k := range p {
					p[k] = uint8(1<<bits.a - 1)
					if !maxed {
						p[k] = uint8(rng.Intn(1 << bits.a))
					}
				}
				for k := range v {
					v[k] = uint8(1<<bits.b - 1)
					if !maxed {
						v[k] = uint8(rng.Intn(1 << bits.b))
					}
				}
				want := make([]int32, sh.cols)
				got := make([]int32, sh.cols)
				for j := range want {
					want[j] = int32(j) - 7 // the kernel adds into acc
					got[j] = want[j]
				}
				for k := 0; k < rows; k++ {
					for j := range want {
						want[j] += int32(p[k]) * int32(v[k*sh.stride+j])
					}
				}
				sweepPairs(mode, &p[0], &v[0], sh.stride, sh.cols, sh.pairs, run, &got[0])
				for j := range want {
					if got[j] != want[j] {
						t.Fatalf("bits %+v %+v maxed=%v: acc[%d] = %d, want %d", bits, sh, maxed, j, got[j], want[j])
					}
				}
			}
		}
	}
}
