package quant

import (
	"math/rand"
	"testing"

	"github.com/hackkv/hack/internal/tensor"
)

// TestSliceRowsRoundTrip checks that slicing and re-appending aligned
// row spans reconstructs the original tensor exactly, for both the K
// layout (along columns) and the V layout (along rows).
func TestSliceRowsRoundTrip(t *testing.T) {
	const rows, cols, pi, cut = 24, 16, 8, 16
	m := tensor.RandNormal(rand.New(rand.NewSource(3)), rows, cols, 1)
	for _, axis := range []Axis{AlongCols, AlongRows} {
		q, err := Quantize(m, axis, Config{Bits: 2, Partition: pi, Rounding: NearestRounding})
		if err != nil {
			t.Fatal(err)
		}
		a, err := q.SliceRows(0, cut)
		if err != nil {
			t.Fatalf("axis %v: %v", axis, err)
		}
		b, err := q.SliceRows(cut, rows)
		if err != nil {
			t.Fatalf("axis %v: %v", axis, err)
		}
		if axis == AlongCols {
			err = a.AppendRows(b)
		} else {
			err = a.AppendRowBlocks(b)
		}
		if err != nil {
			t.Fatalf("axis %v: %v", axis, err)
		}
		if a.Rows != q.Rows || a.NBlocks != q.NBlocks {
			t.Fatalf("axis %v: rejoined %d rows / %d blocks, want %d / %d", axis, a.Rows, a.NBlocks, q.Rows, q.NBlocks)
		}
		for i := range q.Codes {
			if a.Codes[i] != q.Codes[i] {
				t.Fatalf("axis %v: code %d diverged", axis, i)
			}
		}
		for i := range q.Min {
			if a.Min[i] != q.Min[i] || a.Scale[i] != q.Scale[i] {
				t.Fatalf("axis %v: meta %d diverged", axis, i)
			}
		}
	}
}

// TestSliceRowsRejectsMisaligned pins the V-layout alignment guard:
// slicing along-rows tensors off partition boundaries must fail rather
// than split a quantized partition.
func TestSliceRowsRejectsMisaligned(t *testing.T) {
	m := tensor.RandNormal(rand.New(rand.NewSource(4)), 16, 8, 1)
	q, err := Quantize(m, AlongRows, Config{Bits: 2, Partition: 8, Rounding: NearestRounding})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.SliceRows(4, 12); err == nil {
		t.Fatal("misaligned along-rows slice accepted")
	}
	if _, err := q.SliceRows(-8, 8); err == nil {
		t.Fatal("negative slice bound accepted")
	}
}
