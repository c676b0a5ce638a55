package attention

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// tilingLengths straddle the tile height: one row, one tile short, full
// and ragged single and double tiles, and the serving benchmark's long
// prompts.
var tilingLengths = []int{1, 63, 64, 65, 127, 128, 129, 394, 881}

// tilingBackends are the configurations the tiler must not perturb:
// every backend, HACK at every shipped Π, serial and without SE.
func tilingBackends(t *testing.T) []struct {
	name string
	b    Backend
} {
	t.Helper()
	kvquant, err := NewDequant(DequantConfig{MethodName: "KVQuant", Pi: 112, KVBits: 2,
		Rounding: quant.StochasticRounding, Seed: 4, WireFactor: 1})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(pi int, se bool, par int) Backend {
		cfg := DefaultHACKConfig(int64(pi))
		cfg.Pi, cfg.SummationElimination, cfg.Parallelism = pi, se, par
		b, err := NewHACK(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	return []struct {
		name string
		b    Backend
	}{
		{"Exact", ExactBackend{}},
		{"FP16", FP16Backend{}},
		{"KVQuant", kvquant},
		{"HACK/pi32", mk(32, true, 0)},
		{"HACK/pi64", mk(64, true, 0)},
		{"HACK/pi128", mk(128, true, 0)},
		{"HACK/pi64/serial", mk(64, true, 1)},
		{"HACK/pi64/noSE", mk(64, false, 0)},
	}
}

// prefillRun is one prefill's output bits and Stats.
type prefillRun struct {
	bits []uint32
	st   Stats
}

// runPrefill runs prefill at the given GOMAXPROCS; rows at most maxRows
// form one tile (tileRows as shipped, or every row for the reference).
func runPrefill(t *testing.T, procs, maxRows int, prefill func() (*tensor.Matrix, Stats, error)) prefillRun {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	defer func(old int) { tileRows = old }(tileRows)
	tileRows = maxRows
	out, st, err := prefill()
	if err != nil {
		t.Fatal(err)
	}
	r := prefillRun{bits: make([]uint32, len(out.Data)), st: st}
	for i, v := range out.Data {
		r.bits[i] = math.Float32bits(v)
	}
	return r
}

// checkTiling holds a prefill of rows query rows to its one-block
// reference — the whole prompt through one call, the code path every
// tiling must reproduce — at GOMAXPROCS 1, 2 and 4. Output bits and
// Stats must match; the one exception is SE-off's Σ recomputation,
// which each tile repeats over the whole operand, so it scales with the
// tile count and with nothing else.
func checkTiling(t *testing.T, rows int, prefill func() (*tensor.Matrix, Stats, error)) {
	t.Helper()
	ref := runPrefill(t, 1, math.MaxInt, prefill)
	want := ref.st
	want.SumOps *= int64((rows + tileRows - 1) / tileRows)
	for _, procs := range []int{1, 2, 4} {
		got := runPrefill(t, procs, tileRows, prefill)
		if got.st != want {
			t.Errorf("GOMAXPROCS %d: stats %+v, want %+v", procs, got.st, want)
		}
		for i := range ref.bits {
			if got.bits[i] != ref.bits[i] {
				t.Errorf("GOMAXPROCS %d: output row %d col %d is %#x, want %#x",
					procs, i/dh, i%dh, got.bits[i], ref.bits[i])
				break
			}
		}
	}
}

// TestPrefillTilingInvariance: a prefill cut into query-row tiles, on
// any number of workers, computes exactly what one call over every row
// computes, for every backend and at every tile boundary.
func TestPrefillTilingInvariance(t *testing.T) {
	for _, c := range tilingBackends(t) {
		for _, L := range tilingLengths {
			t.Run(fmt.Sprintf("%s/L%d", c.name, L), func(t *testing.T) {
				q, k, v := randQKV(int64(L), L)
				checkTiling(t, L, func() (*tensor.Matrix, Stats, error) {
					h, err := c.b.NewHead(dh)
					if err != nil {
						return nil, Stats{}, err
					}
					return h.Prefill(q, k, v)
				})
			})
		}
	}
}

// TestResumedPrefillTilingInvariance: the same over a resumed prefill —
// a 200-row suffix over a restored 512-token prefix, whose tiles start
// deep into the cache.
func TestResumedPrefillTilingInvariance(t *testing.T) {
	const cached, suffix = 512, 200
	q, k, v := randQKV(5, cached+suffix)
	for _, c := range tilingBackends(t) {
		hb, ok := c.b.(*HACKBackend)
		if !ok {
			continue // only HACK heads restore from pages
		}
		t.Run(c.name, func(t *testing.T) {
			donor, err := hb.NewHead(dh)
			if err != nil {
				t.Fatal(err)
			}
			if _, _, err := donor.Prefill(slice(q, 0, cached), slice(k, 0, cached), slice(v, 0, cached)); err != nil {
				t.Fatal(err)
			}
			pk, pv, err := donor.(PrefixPageExporter).ExportPrefixPages(0, cached)
			if err != nil {
				t.Fatal(err)
			}
			checkTiling(t, suffix, func() (*tensor.Matrix, Stats, error) {
				h, err := hb.RestorePrefixHead(dh, pk.Clone(), pv.Clone())
				if err != nil {
					return nil, Stats{}, err
				}
				n := cached + suffix
				return h.Prefill(slice(q, cached, n), slice(k, cached, n), slice(v, cached, n))
			})
		})
	}
}
