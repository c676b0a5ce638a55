package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %+v", m)
	}
	m.Set(1, 2, 7)
	if m.At(1, 2) != 7 {
		t.Errorf("At(1,2) = %v, want 7", m.At(1, 2))
	}
	if got := m.Row(1); got[2] != 7 {
		t.Errorf("Row(1) = %v", got)
	}
}

func TestNewPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromSlice(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Error("FromSlice with wrong length did not panic")
		}
	}()
	FromSlice(2, 2, []float32{1})
}

func TestCloneIndependence(t *testing.T) {
	m := FromSlice(1, 2, []float32{1, 2})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Error("Clone shares storage with original")
	}
}

func TestSliceRowsAliases(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 2, 3, 4, 5, 6})
	v := m.SliceRows(1, 3)
	if v.Rows != 2 || v.At(0, 0) != 3 {
		t.Fatalf("SliceRows view wrong: %+v", v)
	}
	v.Set(0, 0, 99)
	if m.At(1, 0) != 99 {
		t.Error("SliceRows should alias the parent storage")
	}
}

func TestSliceColsCopies(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	c := m.SliceCols(1, 3)
	if c.Rows != 2 || c.Cols != 2 || c.At(0, 0) != 2 || c.At(1, 1) != 6 {
		t.Fatalf("SliceCols = %+v", c)
	}
	c.Set(0, 0, 99)
	if m.At(0, 1) != 2 {
		t.Error("SliceCols must copy")
	}
}

func TestAppendRows(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(2, 2, []float32{3, 4, 5, 6})
	out := AppendRows(a, b)
	if out.Rows != 3 || out.At(2, 1) != 6 {
		t.Fatalf("AppendRows = %+v", out)
	}
	// Appending to nil creates a copy of b.
	out2 := AppendRows(nil, b)
	out2.Set(0, 0, 42)
	if b.At(0, 0) == 42 {
		t.Error("AppendRows(nil, b) must copy b")
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestMatMulKnown(t *testing.T) {
	a := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	b := FromSlice(3, 2, []float32{7, 8, 9, 10, 11, 12})
	c := MatMul(a, b)
	want := []float32{58, 64, 139, 154}
	for i, w := range want {
		if c.Data[i] != w {
			t.Fatalf("MatMul = %v, want %v", c.Data, want)
		}
	}
}

func TestMatMulTransBMatchesMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 4, 6, 1)
	b := RandNormal(rng, 5, 6, 1)
	got := MatMulTransB(a, b)
	want := MatMul(a, b.Transpose())
	if d := MaxAbsDiff(got, want); d > 1e-5 {
		t.Errorf("MatMulTransB differs from MatMul by %v", d)
	}
}

func TestMatMulShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul with mismatched shapes did not panic")
		}
	}()
	MatMul(New(2, 3), New(2, 3))
}

// Property: matmul distributes over blockwise splitting of the inner
// dimension — the identity the Fig. 6(b) block decomposition relies on.
func TestMatMulBlockDecomposition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, z, n := 3+rng.Intn(4), 4+2*rng.Intn(4), 3+rng.Intn(4)
		a := RandNormal(rng, m, z, 1)
		b := RandNormal(rng, z, n, 1)
		full := MatMul(a, b)
		half := z / 2
		a1, a2 := a.SliceCols(0, half), a.SliceCols(half, z)
		b1, b2 := b.SliceRows(0, half), b.SliceRows(half, z)
		sum := MatMul(a1, b1).Add(MatMul(a2, b2))
		return MaxAbsDiff(full, sum) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := RandNormal(rng, 5, 9, 3)
	Softmax(m)
	for i := 0; i < m.Rows; i++ {
		var sum float64
		for _, v := range m.Row(i) {
			if v < 0 || v > 1 {
				t.Fatalf("softmax value %v out of [0,1]", v)
			}
			sum += float64(v)
		}
		if math.Abs(sum-1) > 1e-5 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	m := FromSlice(1, 3, []float32{1e4, 1e4 + 1, 1e4 - 1})
	Softmax(m)
	for _, v := range m.Data {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			t.Fatalf("softmax overflowed: %v", m.Data)
		}
	}
	if !(m.At(0, 1) > m.At(0, 0) && m.At(0, 0) > m.At(0, 2)) {
		t.Errorf("softmax ordering wrong: %v", m.Data)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	f := func(seed int64, shift float32) bool {
		if math.IsNaN(float64(shift)) || math.Abs(float64(shift)) > 100 {
			return true
		}
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rng, 2, 6, 1)
		b := a.Clone()
		for i := range b.Data {
			b.Data[i] += shift
		}
		Softmax(a)
		Softmax(b)
		return MaxAbsDiff(a, b) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// CausalSoftmax must be bit-identical to scaling the whole matrix,
// masking everything past row i's column i+offset with −∞ and applying
// Softmax — and must write exact +0 past the diagonal.
func TestCausalSoftmax(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const scale = float32(0.17677669)
	for _, c := range []struct{ rows, cols, offset int }{
		{3, 5, 2}, {5, 5, 0}, {1, 9, 8}, {7, 20, 13}, {4, 6, 300}, {6, 6, -1}, {0, 4, 0},
	} {
		m := RandNormal(rng, c.rows, c.cols, 3)
		want := m.Clone().Scale(scale)
		if c.offset >= 0 {
			for i := 0; i < want.Rows; i++ {
				row := want.Row(i)
				for j := i + c.offset + 1; j < len(row); j++ {
					row[j] = float32(math.Inf(-1))
				}
			}
		}
		Softmax(want)
		got := CausalSoftmax(m, c.offset, scale)
		for i, v := range got.Data {
			if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%+v: element %d = %v, want %v", c, i, v, want.Data[i])
			}
		}
		for i := 0; i < got.Rows; i++ {
			if live := LiveCols(i, c.offset, c.cols); c.offset >= 0 && live != min(c.cols, i+c.offset+1) {
				t.Fatalf("%+v: LiveCols(%d) = %d", c, i, live)
			}
		}
	}
}

func TestRandNormalDeterministic(t *testing.T) {
	a := RandNormal(rand.New(rand.NewSource(7)), 3, 3, 1)
	b := RandNormal(rand.New(rand.NewSource(7)), 3, 3, 1)
	if MaxAbsDiff(a, b) != 0 {
		t.Error("seeded RandNormal is not deterministic")
	}
}

func TestRandUniformRange(t *testing.T) {
	m := RandUniform(rand.New(rand.NewSource(3)), 10, 10, -2, 5)
	for _, v := range m.Data {
		if v < -2 || v >= 5 {
			t.Fatalf("uniform value %v out of [-2,5)", v)
		}
	}
}

func TestErrorNorms(t *testing.T) {
	a := FromSlice(1, 2, []float32{1, 2})
	b := FromSlice(1, 2, []float32{1, 4})
	if d := MaxAbsDiff(a, b); d != 2 {
		t.Errorf("MaxAbsDiff = %v, want 2", d)
	}
	want := 2 / math.Sqrt(17)
	if d := RelFrobenius(a, b); math.Abs(d-want) > 1e-9 {
		t.Errorf("RelFrobenius = %v, want %v", d, want)
	}
	zero := New(1, 2)
	if d := RelFrobenius(zero, zero); d != 0 {
		t.Errorf("RelFrobenius(0,0) = %v, want 0", d)
	}
}

func TestMeanAbs(t *testing.T) {
	m := FromSlice(1, 4, []float32{-1, 2, -3, 4})
	if got := MeanAbs(m); got != 2.5 {
		t.Errorf("MeanAbs = %v, want 2.5", got)
	}
	if got := MeanAbs(New(0, 0)); got != 0 {
		t.Errorf("MeanAbs(empty) = %v, want 0", got)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 128, 128, 1)
	y := RandNormal(rng, 128, 128, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatMul(x, y)
	}
}

func BenchmarkSoftmax(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := RandNormal(rng, 64, 1024, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Softmax(x)
	}
}
