package quant

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"github.com/hackkv/hack/internal/tensor"
)

func cfg2(rng *rand.Rand) Config {
	return Config{Bits: 2, Partition: 64, Rounding: StochasticRounding, RNG: rng}
}

func cfgNearest(bitsN, pi int) Config {
	return Config{Bits: bitsN, Partition: pi, Rounding: NearestRounding}
}

func TestConfigValidation(t *testing.T) {
	m := tensor.New(2, 4)
	if _, err := Quantize(m, AlongCols, Config{Bits: 0, Partition: 4, Rounding: NearestRounding}); err == nil {
		t.Error("bits=0 accepted")
	}
	if _, err := Quantize(m, AlongCols, Config{Bits: 9, Partition: 4, Rounding: NearestRounding}); err == nil {
		t.Error("bits=9 accepted")
	}
	if _, err := Quantize(m, AlongCols, Config{Bits: 2, Partition: 0, Rounding: NearestRounding}); err == nil {
		t.Error("partition=0 accepted")
	}
	if _, err := Quantize(m, AlongCols, Config{Bits: 2, Partition: 4, Rounding: StochasticRounding}); err == nil {
		t.Error("stochastic without RNG accepted")
	}
}

func TestAxisString(t *testing.T) {
	if AlongCols.String() != "along-cols" || AlongRows.String() != "along-rows" {
		t.Error("Axis.String wrong")
	}
}

// Dequantized values must lie within the partition's [min, max] range and
// within one scale step of the original value.
func TestQuantizeErrorBound(t *testing.T) {
	for _, axis := range []Axis{AlongCols, AlongRows} {
		rng := rand.New(rand.NewSource(1))
		m := tensor.RandNormal(rng, 48, 48, 2)
		q := MustQuantize(m, axis, Config{Bits: 2, Partition: 16, Rounding: StochasticRounding, RNG: rng})
		d := q.Dequantize()
		for i := range m.Data {
			diff := math.Abs(float64(m.Data[i] - d.Data[i]))
			// Max error: one full scale step plus FP16 metadata rounding.
			if diff > 1.05*maxScale(q)+1e-2 {
				t.Fatalf("axis %v elem %d: err %v exceeds step %v", axis, i, diff, maxScale(q))
			}
		}
	}
}

func maxScale(q *Tensor) float64 {
	var mx float64
	for _, s := range q.Scale {
		if float64(s) > mx {
			mx = float64(s)
		}
	}
	return mx
}

// With 8-bit nearest rounding the reconstruction should be tight:
// within half a scale step.
func TestQuantize8BitNearestTight(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := tensor.RandNormal(rng, 16, 64, 1)
	q := MustQuantize(m, AlongCols, cfgNearest(8, 64))
	d := q.Dequantize()
	for i := range m.Data {
		diff := math.Abs(float64(m.Data[i] - d.Data[i]))
		if diff > 0.51*maxScale(q)+2e-3 {
			t.Fatalf("elem %d err %v vs half-step %v", i, diff, 0.5*maxScale(q))
		}
	}
}

// Stochastic rounding must be unbiased: the mean reconstruction over many
// trials converges to the original value.
func TestStochasticRoundingUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.FromSlice(1, 4, []float32{0.1, 0.37, -0.52, 0.9})
	const trials = 4000
	sum := make([]float64, 4)
	for k := 0; k < trials; k++ {
		q := MustQuantize(m, AlongCols, Config{Bits: 2, Partition: 4, Rounding: StochasticRounding, RNG: rng})
		d := q.Dequantize()
		for i, v := range d.Data {
			sum[i] += float64(v)
		}
	}
	for i, s := range sum {
		mean := s / trials
		if math.Abs(mean-float64(m.Data[i])) > 0.02 {
			t.Errorf("elem %d mean %v vs true %v (bias)", i, mean, m.Data[i])
		}
	}
}

// Property: codes never exceed 2^bits − 1 and sums equal the code totals.
func TestCodesAndSumsInvariant(t *testing.T) {
	f := func(seed int64, alongRows bool) bool {
		rng := rand.New(rand.NewSource(seed))
		rows, cols := 2+rng.Intn(30), 2+rng.Intn(30)
		m := tensor.RandNormal(rng, rows, cols, 3)
		axis := AlongCols
		if alongRows {
			axis = AlongRows
		}
		b := 1 + rng.Intn(8)
		pi := 1 + rng.Intn(20)
		q := MustQuantize(m, axis, Config{Bits: b, Partition: pi, Rounding: StochasticRounding, RNG: rng})
		maxCode := uint8(1<<b - 1)
		for _, c := range q.Codes {
			if c > maxCode {
				return false
			}
		}
		nvec := q.Rows
		if axis == AlongRows {
			nvec = q.Cols
		}
		for v := 0; v < nvec; v++ {
			for blk := 0; blk < q.NBlocks; blk++ {
				lo, hi := q.BlockRange(blk)
				var want int32
				for k := lo; k < hi; k++ {
					if axis == AlongCols {
						want += int32(q.Code(v, k))
					} else {
						want += int32(q.Code(k, v))
					}
				}
				if q.Sum(v, blk) != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestConstantPartition(t *testing.T) {
	m := tensor.FromSlice(1, 4, []float32{5, 5, 5, 5})
	q := MustQuantize(m, AlongCols, cfgNearest(2, 4))
	d := q.Dequantize()
	for _, v := range d.Data {
		if v != 5 {
			t.Fatalf("constant partition reconstructed as %v", v)
		}
	}
	if _, s := q.Meta(0, 0); s != 0 {
		t.Errorf("scale for constant partition = %v, want 0", s)
	}
}

func TestPartialLastBlock(t *testing.T) {
	// 10 elements with Π=4 → blocks of 4,4,2.
	m := tensor.FromSlice(1, 10, []float32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	q := MustQuantize(m, AlongCols, cfgNearest(2, 4))
	if q.NBlocks != 3 {
		t.Fatalf("NBlocks = %d, want 3", q.NBlocks)
	}
	lo, hi := q.BlockRange(2)
	if lo != 8 || hi != 10 {
		t.Fatalf("last block range [%d,%d), want [8,10)", lo, hi)
	}
	d := q.Dequantize()
	// Last block holds {8,9}: endpoints reconstruct up to FP16 metadata
	// rounding of the scale (1/3 is inexact in half precision).
	if math.Abs(float64(d.At(0, 8))-8) > 1e-3 || math.Abs(float64(d.At(0, 9))-9) > 1e-3 {
		t.Errorf("last block dequant = %v, %v", d.At(0, 8), d.At(0, 9))
	}
}

func TestAlongRowsLayout(t *testing.T) {
	// Column 0 = {0,10}, column 1 = {5,5}: per-column metadata must differ.
	m := tensor.FromSlice(2, 2, []float32{0, 5, 10, 5})
	q := MustQuantize(m, AlongRows, cfgNearest(2, 2))
	min0, s0 := q.Meta(0, 0)
	min1, s1 := q.Meta(1, 0)
	if min0 != 0 || s0 == 0 {
		t.Errorf("col 0 meta = (%v,%v)", min0, s0)
	}
	if min1 != 5 || s1 != 0 {
		t.Errorf("col 1 meta = (%v,%v)", min1, s1)
	}
}

func TestDequantOps(t *testing.T) {
	m := tensor.New(3, 5)
	q := MustQuantize(m, AlongCols, cfgNearest(2, 4))
	if q.DequantOps() != 30 {
		t.Errorf("DequantOps = %d, want 30", q.DequantOps())
	}
}

func TestCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := tensor.RandNormal(rng, 4, 8, 1)
	q := MustQuantize(m, AlongCols, cfg2(rng))
	c := q.Clone()
	c.Codes[0] ^= 1
	c.Sums[0]++
	if q.Codes[0] == c.Codes[0] || q.Sums[0] == c.Sums[0] {
		t.Error("Clone shares storage")
	}
}

func TestPackRoundTrip(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8} {
		n := 37
		codes := make([]uint8, n)
		rng := rand.New(rand.NewSource(int64(w)))
		for i := range codes {
			codes[i] = uint8(rng.Intn(1 << w))
		}
		p, err := Pack(codes, w)
		if err != nil {
			t.Fatal(err)
		}
		if len(p) != PackedBytes(n, w) {
			t.Fatalf("width %d: packed %d bytes, want %d", w, len(p), PackedBytes(n, w))
		}
		u, err := Unpack(p, n, w)
		if err != nil {
			t.Fatal(err)
		}
		for i := range codes {
			if u[i] != codes[i] {
				t.Fatalf("width %d: code %d: %d != %d", w, i, u[i], codes[i])
			}
		}
	}
}

func TestPackRoundTripProperty(t *testing.T) {
	f := func(raw []byte, w8 uint8) bool {
		w := int(w8%8) + 1
		codes := make([]uint8, len(raw))
		for i, b := range raw {
			codes[i] = b & uint8(1<<w-1)
		}
		p, err := Pack(codes, w)
		if err != nil {
			return false
		}
		u, err := Unpack(p, len(codes), w)
		if err != nil {
			return false
		}
		for i := range codes {
			if u[i] != codes[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPackErrors(t *testing.T) {
	if _, err := Pack(nil, 0); err == nil {
		t.Error("Pack width 0 accepted")
	}
	if _, err := Unpack(nil, 8, 2); err == nil {
		t.Error("Unpack short buffer accepted")
	}
}

// TestFromWireRejectsOverflowingShape feeds FromWire hostile headers
// whose rows×cols overflows int (and int64): the shape check must refuse
// them before anything is sized from the product, on 32- and 64-bit
// platforms alike.
func TestFromWireRejectsOverflowingShape(t *testing.T) {
	for _, sh := range [][2]int{
		{math.MaxInt, math.MaxInt}, {math.MaxInt/2 + 1, 2}, {2, math.MaxInt/2 + 1},
		{1 << 30, 1 << 30}, {-1, 4}, {4, -1},
	} {
		_, err := FromWire(AlongCols, sh[0], sh[1], 2, 64, nil, nil, nil)
		if err == nil || !strings.Contains(err.Error(), "wire shape") {
			t.Errorf("FromWire(%d×%d): err = %v, want a wire-shape refusal", sh[0], sh[1], err)
		}
	}
}

func TestSumBits(t *testing.T) {
	// 2-bit, Π=64 → 8 bits (§5.3 example); 2-bit, Π=128 → 9 bits → INT16.
	if got := SumBits(2, 64); got != 8 {
		t.Errorf("SumBits(2,64) = %d, want 8", got)
	}
	if got := SumBits(2, 128); got != 9 {
		t.Errorf("SumBits(2,128) = %d, want 9", got)
	}
	if SumStorageBytes(2, 64) != 1 || SumStorageBytes(2, 128) != 2 {
		t.Error("SumStorageBytes alignment rule wrong")
	}
	if got := SumBits(3, 1); got != 3 {
		t.Errorf("SumBits(3,1) = %d, want 3", got)
	}
}

// The 2-bit compression rate including metadata should be near the
// paper's ≈86% for realistic shapes.
func TestCompressionRatio(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := tensor.RandNormal(rng, 1024, 128, 1) // 1024 tokens × d_h 128
	q := MustQuantize(m, AlongCols, cfg2(rng))
	r := q.CompressionRatio()
	if r < 0.83 || r > 0.90 {
		t.Errorf("2-bit compression ratio %.3f outside [0.83, 0.90]", r)
	}
}

func TestSizeReport(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := tensor.RandNormal(rng, 128, 128, 1)
	q := MustQuantize(m, AlongCols, cfg2(rng))
	s := q.Size(true)
	if s.CodeBytes != 128*128*2/8 {
		t.Errorf("CodeBytes = %d", s.CodeBytes)
	}
	// 128 rows × 2 blocks × 4 bytes meta.
	if s.MetaBytes != 128*2*4 {
		t.Errorf("MetaBytes = %d", s.MetaBytes)
	}
	if s.SumBytes != 128*2*1 { // 2-bit Π=64 → 1 byte per sum
		t.Errorf("SumBytes = %d", s.SumBytes)
	}
	if s.Total() != s.CodeBytes+s.MetaBytes+s.SumBytes {
		t.Error("Total mismatch")
	}
	// Sums excluded on request.
	if q.Size(false).SumBytes != 0 {
		t.Error("Size(false) included sums")
	}
}

func TestPackCodesMatchesSize(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := tensor.RandNormal(rng, 8, 32, 1)
	q := MustQuantize(m, AlongCols, cfg2(rng))
	if len(q.PackCodes()) != q.Size(false).CodeBytes {
		t.Error("PackCodes length disagrees with SizeReport")
	}
}

func BenchmarkQuantize2Bit(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.RandNormal(rng, 512, 128, 1)
	cfg := Config{Bits: 2, Partition: 64, Rounding: StochasticRounding, RNG: rng}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MustQuantize(m, AlongCols, cfg)
	}
}

func BenchmarkDequantize(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.RandNormal(rng, 512, 128, 1)
	q := MustQuantize(m, AlongCols, Config{Bits: 2, Partition: 64, Rounding: StochasticRounding, RNG: rng})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Dequantize()
	}
}

func BenchmarkPack2Bit(b *testing.B) {
	codes := make([]uint8, 512*128)
	for i := range codes {
		codes[i] = uint8(i & 3)
	}
	b.SetBytes(int64(len(codes)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Pack(codes, 2); err != nil {
			b.Fatal(err)
		}
	}
}
