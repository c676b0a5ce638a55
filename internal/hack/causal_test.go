package hack

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/quant"
	"github.com/hackkv/hack/internal/tensor"
)

// sameBits fails the test unless got and want hold bit-identical floats.
func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for k, v := range got {
		if math.Float32bits(v) != math.Float32bits(want[k]) {
			t.Fatalf("%s: element %d = %v, want %v", what, k, v, want[k])
		}
	}
}

// staleTensor returns a quantized tensor whose storage holds garbage, so
// a quantizer that skips a partition without writing it shows up.
func staleTensor(n int) *quant.Tensor {
	t := &quant.Tensor{Codes: make([]uint8, n), Min: make([]float32, n), Scale: make([]float32, n), Sums: make([]int32, n)}
	for i := 0; i < n; i++ {
		t.Codes[i], t.Min[i], t.Scale[i], t.Sums[i] = 7, 3, 5, 11
	}
	return t
}

// TestCausalKernelsMatchFullThenMask pins the live-triangle prefill
// kernels against the scalar reference computed whole and masked after:
//
//   - CausalMatMulTransBInto equals MatMulTransBScalar with every score
//     past row i's column i+offset zeroed;
//   - QuantizeCausalInto of a causal probability matrix's first nFull
//     columns, read in place, equals QuantizeInto of a copy of them,
//     codes, metadata and sums;
//   - CausalMatMulInto of those probabilities equals MatMulScalar.
//
// It covers Π ∈ {32, 64, 128}, offsets on both sides of a partition
// boundary and past the rows, and row counts from one through 3Π. Head
// width 2Π spans two partitions: up to verifyRowsMax rows the AVX2 block
// tile runs multi-row groups of eight, four and one (verifyTile) — 4, 8
// and 32 fill whole groups, 7 and 9 leave single rows, 13 and Π−1 = 31
// end in 8+4+1 remainders — and above it the row-outer path runs. Head
// width 32 is one partition (partial at Π > 32), which takes the
// row-outer single-partition path at every row count. Width 48 is a
// partial partition that is not a multiple of 32 and takes the generic
// tile, 8-bit KV takes the pure-Go dot, and fan-out is serial and
// parallel, with SE on and off.
func TestCausalKernelsMatchFullThenMask(t *testing.T) {
	dst := &tensor.Matrix{}
	for _, pi := range []int{32, 64, 128} {
		for _, offset := range []int{0, 1, pi - 1, pi, pi + 1, 300} {
			for _, rows := range []int{1, 2, 4, 7, 8, 9, 13, verifyRowsMax, pi - 1, pi + 1, 3 * pi} {
				rng := rand.New(rand.NewSource(int64(pi*100000 + offset*1000 + rows)))
				keys := rows + offset
				name := fmt.Sprintf("pi=%d offset=%d rows=%d", pi, offset, rows)
				qCfg := quant.Config{Bits: 8, Partition: pi, Rounding: quant.StochasticRounding, Key: 0x51, Row0: offset}
				for _, g := range []struct{ dh, kvBits int }{{32, 2}, {48, 2}, {2 * pi, 2}, {32, 8}} {
					qq := quant.MustQuantize(tensor.RandNormal(rng, rows, g.dh, 1), quant.AlongCols, qCfg)
					kq := q(tensor.RandNormal(rng, keys, g.dh, 1), quant.AlongCols, g.kvBits, pi, rng)
					want, _ := MatMulTransBScalar(qq, kq, DefaultOptions())
					for i := 0; i < want.Rows; i++ {
						clear(want.Row(i)[i+offset+1:])
					}
					for _, opt := range causalOptions() {
						CausalMatMulTransBInto(dst, qq, kq, offset, opt)
						sameBits(t, fmt.Sprintf("Q·Kᵀ %s dh=%d kv=%d %+v", name, g.dh, g.kvBits, opt), dst.Data, want.Data)
					}
				}

				nFull := keys / pi * pi
				if nFull == 0 {
					continue
				}
				s := tensor.CausalSoftmax(tensor.RandNormal(rng, rows, keys, 2), offset, 1)
				full := quant.MustQuantize(s.SliceCols(0, nFull), quant.AlongCols, qCfg)
				causal, err := quant.QuantizeCausalInto(staleTensor(rows*nFull), s, nFull, offset, qCfg)
				if err != nil {
					t.Fatal(err)
				}
				if string(causal.Codes) != string(full.Codes) {
					t.Fatalf("P codes %s differ from the full quantizer's", name)
				}
				sameBits(t, "P min "+name, causal.Min, full.Min)
				sameBits(t, "P scale "+name, causal.Scale, full.Scale)
				for k := range full.Sums {
					if causal.Sums[k] != full.Sums[k] {
						t.Fatalf("P sum %s [%d] = %d, want %d", name, k, causal.Sums[k], full.Sums[k])
					}
				}
				for _, kvBits := range []int{2, 8} {
					vq := q(tensor.RandNormal(rng, nFull, 32, 1), quant.AlongRows, kvBits, pi, rng)
					want, _ := MatMulScalar(full, vq, DefaultOptions())
					for _, opt := range causalOptions() {
						CausalMatMulInto(dst, causal, vq, offset, opt)
						sameBits(t, fmt.Sprintf("P·V %s kv=%d %+v", name, kvBits, opt), dst.Data, want.Data)
					}
				}
			}
		}
	}
}

func causalOptions() []Options {
	return []Options{{ReuseSums: true, Parallelism: 1}, {ReuseSums: true}, {ReuseSums: false, Parallelism: 1}, {ReuseSums: false}}
}

// TestCausalOpsCountLiveTriangle pins the op tallies of the causal
// kernels to closed forms of the live triangle, and a negative offset
// (decode) to the unmasked §5.2 counts.
func TestCausalOpsCountLiveTriangle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const pi, k, dh, o = 32, 3, 64, 5
	const L = k * pi
	nb := int64(dh / pi)

	// Q·Kᵀ: L query rows after o cached keys; row i computes i+o+1 scores.
	qq := q(tensor.RandNormal(rng, L, dh, 1), quant.AlongCols, 8, pi, rng)
	kq := q(tensor.RandNormal(rng, L+o, dh, 1), quant.AlongCols, 2, pi, rng)
	cells := int64(L*(L+1)/2 + L*o)
	ops := CausalMatMulTransBInto(&tensor.Matrix{}, qq, kq, o, DefaultOptions())
	if want := (Ops{IntMACs: 2 * dh * cells, ApproxFlops: 9*nb*cells + L*dh}); ops != want {
		t.Errorf("causal Q·Kᵀ ops %+v, want %+v", ops, want)
	}
	if ops := CausalMatMulTransBInto(&tensor.Matrix{}, qq, kq, -1, DefaultOptions()); ops.IntMACs != IntMatMulOps(L, dh, L+o) ||
		ops.ApproxFlops != ApproxOpsSE(L, dh, L+o)+(nb-1)*9*L*(L+o) {
		t.Errorf("unmasked Q·Kᵀ ops %+v", ops)
	}

	// P·V: an L×L probability matrix (offset 0); row i multiplies
	// ⌊i/Π⌋+1 partitions, Π·k(k+1)/2 partition-rows in all.
	s := tensor.CausalSoftmax(tensor.RandNormal(rng, L, L, 1), 0, 1)
	pq, err := quant.QuantizeCausalInto(nil, s, L, 0, quant.Config{Bits: 8, Partition: pi, Rounding: quant.NearestRounding})
	if err != nil {
		t.Fatal(err)
	}
	vq := q(tensor.RandNormal(rng, L, dh, 1), quant.AlongRows, 2, pi, rng)
	blocks := int64(pi * k * (k + 1) / 2)
	ops = CausalMatMulInto(&tensor.Matrix{}, pq, vq, 0, DefaultOptions())
	if want := (Ops{IntMACs: 2 * dh * pi * blocks, ApproxFlops: 9*dh*blocks + pi*blocks}); ops != want {
		t.Errorf("causal P·V ops %+v, want %+v", ops, want)
	}
	if ops := CausalMatMulInto(&tensor.Matrix{}, pq, vq, -1, DefaultOptions()); ops.IntMACs != IntMatMulOps(L, L, dh) ||
		ops.ApproxFlops != 9*k*L*dh+L*L {
		t.Errorf("unmasked P·V ops %+v", ops)
	}
}
