package quant

import (
	"fmt"
	"math"
)

// maxWireElems bounds a wire tensor's element count so neither rows×cols
// nor the bit-size arithmetic in FromWire can overflow int on hostile
// headers: 8 Gi codes (≫ any real KV head) on 64-bit platforms, what
// PackedBytes can size on 32-bit ones. FromWire checks it in int64 so
// the bound compiles on both.
const maxWireElems = min(1<<33, (math.MaxInt-7)/8)

// FromWire rebuilds a quantized tensor from its wire components: packed
// codes plus FP16-rounded min/scale metadata, with the summation-
// elimination sums recomputed from the codes (they are not transmitted —
// the decode instance derives them once on receipt, §5.3). All inputs
// come off the network, so every shape is validated rather than trusted.
func FromWire(axis Axis, rows, cols, bitWidth, pi int, packed []byte, min, scale []float32) (*Tensor, error) {
	if rows < 0 || cols < 0 || rows > 0 && cols > 0 && int64(rows) > maxWireElems/int64(cols) {
		return nil, fmt.Errorf("quant: wire shape %dx%d", rows, cols)
	}
	if bitWidth < 1 || bitWidth > 8 {
		return nil, fmt.Errorf("quant: wire bit width %d out of [1,8]", bitWidth)
	}
	if pi <= 0 {
		return nil, fmt.Errorf("quant: wire partition %d", pi)
	}
	t := &Tensor{Rows: rows, Cols: cols, Axis: axis, Bits: bitWidth, Pi: pi}
	axisLen := t.axisLen()
	if axisLen > 0 {
		t.NBlocks = (axisLen + pi - 1) / pi
	}
	if axis == AlongRows && rows%pi != 0 {
		// Row-axis (V-style) tensors hold only complete partitions; a
		// ragged row count means the sender misframed the tail.
		return nil, fmt.Errorf("quant: wire row count %d not a multiple of partition %d", rows, pi)
	}
	nMeta := t.numVectors() * t.NBlocks
	if len(min) != nMeta || len(scale) != nMeta {
		return nil, fmt.Errorf("quant: wire metadata %d/%d entries, want %d", len(min), len(scale), nMeta)
	}
	codes, err := Unpack(packed, rows*cols, bitWidth)
	if err != nil {
		return nil, err
	}
	t.Codes = codes
	t.Min = min
	t.Scale = scale
	t.RecomputeSums()
	return t, nil
}

// RecomputeSums rebuilds the summation-elimination cache from the codes.
// The sums are redundant with the codes, so receivers recompute them
// instead of shipping them (§5.3 prices this as a one-time cost).
func (t *Tensor) RecomputeSums() {
	nvec := t.numVectors()
	t.Sums = make([]int32, nvec*t.NBlocks)
	for v := 0; v < nvec; v++ {
		for b := 0; b < t.NBlocks; b++ {
			lo, hi := t.BlockRange(b)
			var s int32
			if t.Axis == AlongCols {
				base := v * t.Cols
				for j := lo; j < hi; j++ {
					s += int32(t.Codes[base+j])
				}
			} else {
				for i := lo; i < hi; i++ {
					s += int32(t.Codes[i*t.Cols+v])
				}
			}
			t.Sums[t.metaIndex(v, b)] = s
		}
	}
}
