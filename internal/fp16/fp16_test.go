package fp16

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		f float32
		h Bits
	}{
		{0, 0x0000},
		{1, 0x3C00},
		{-1, 0xBC00},
		{2, 0x4000},
		{0.5, 0x3800},
		{65504, 0x7BFF},
		{-65504, 0xFBFF},
		{5.9604645e-08, 0x0001}, // smallest positive subnormal
		{6.1035156e-05, 0x0400}, // smallest positive normal
	}
	for _, c := range cases {
		if got := FromFloat32(c.f); got != c.h {
			t.Errorf("FromFloat32(%v) = %#04x, want %#04x", c.f, got, c.h)
		}
		if got := ToFloat32(c.h); got != c.f {
			t.Errorf("ToFloat32(%#04x) = %v, want %v", c.h, got, c.f)
		}
	}
}

func TestNegativeZero(t *testing.T) {
	h := FromFloat32(float32(math.Copysign(0, -1)))
	if h != 0x8000 {
		t.Fatalf("FromFloat32(-0) = %#04x, want 0x8000", h)
	}
	f := ToFloat32(h)
	if f != 0 || !math.Signbit(float64(f)) {
		t.Fatalf("ToFloat32(0x8000) = %v, want -0", f)
	}
}

func TestOverflowToInfinity(t *testing.T) {
	if got := FromFloat32(70000); got != PositiveInfinity {
		t.Errorf("FromFloat32(70000) = %#04x, want +Inf", got)
	}
	if got := FromFloat32(-70000); got != NegativeInfinity {
		t.Errorf("FromFloat32(-70000) = %#04x, want -Inf", got)
	}
	if got := ToFloat32(PositiveInfinity); !math.IsInf(float64(got), 1) {
		t.Errorf("ToFloat32(+Inf bits) = %v, want +Inf", got)
	}
}

func TestNaNRoundTrip(t *testing.T) {
	h := FromFloat32(float32(math.NaN()))
	if h&expMask16 != expMask16 || h&fracMask16 == 0 {
		t.Fatalf("FromFloat32(NaN) = %#04x, not a NaN encoding", h)
	}
	if f := ToFloat32(h); !math.IsNaN(float64(f)) {
		t.Fatalf("ToFloat32(NaN bits) = %v, want NaN", f)
	}
}

func TestUnderflowToZero(t *testing.T) {
	if got := FromFloat32(1e-10); got != 0 {
		t.Errorf("FromFloat32(1e-10) = %#04x, want 0", got)
	}
}

func TestRoundToNearestEven(t *testing.T) {
	// 1 + 2^-11 is exactly halfway between 1.0 and the next half
	// (1 + 2^-10); nearest-even picks 1.0.
	f := float32(1 + math.Pow(2, -11))
	if got := Round(f); got != 1 {
		t.Errorf("Round(1+2^-11) = %v, want 1 (ties to even)", got)
	}
	// 1 + 3*2^-11 is halfway between 1+2^-10 and 1+2^-9; nearest-even
	// picks 1+2^-9 (even mantissa).
	f = float32(1 + 3*math.Pow(2, -11))
	want := float32(1 + math.Pow(2, -9))
	if got := Round(f); got != want {
		t.Errorf("Round(1+3*2^-11) = %v, want %v", got, want)
	}
}

// TestRoundTripAllBits exhaustively round-trips all 65536 binary16
// patterns: widening then narrowing must be the identity (modulo NaN
// payloads, which must stay NaN).
func TestRoundTripAllBits(t *testing.T) {
	for i := 0; i <= 0xFFFF; i++ {
		h := Bits(i)
		f := ToFloat32(h)
		back := FromFloat32(f)
		if math.IsNaN(float64(f)) {
			if back&expMask16 != expMask16 || back&fracMask16 == 0 {
				t.Fatalf("NaN bits %#04x round-tripped to non-NaN %#04x", h, back)
			}
			continue
		}
		if back != h {
			t.Fatalf("bits %#04x -> %v -> %#04x", h, f, back)
		}
	}
}

// TestRoundMatchesConversionPair holds Round to ToFloat32(FromFloat32(f))
// bit for bit on every exponent from just below the smallest normal half
// to just past the largest, the zero, subnormal and Inf/NaN exponents,
// both signs, every pattern of the 14 low mantissa bits (the rounding
// remainder and the kept LSB that breaks ties) and several high mantissa
// patterns, among them all ones (the carry into the exponent and the
// overflow past 65504).
func TestRoundMatchesConversionPair(t *testing.T) {
	exps := []uint32{0, 1, 100, 254, 255}
	for e := uint32(110); e <= 145; e++ {
		exps = append(exps, e)
	}
	for _, e := range exps {
		for _, hi := range []uint32{0, 1, 0x0aa, 0x155, 0x1fe, 0x1ff} {
			for lo := uint32(0); lo < 1<<14; lo++ {
				for _, sign := range []uint32{0, 1 << 31} {
					b := sign | e<<23 | hi<<14 | lo
					f := math.Float32frombits(b)
					got, want := Round(f), ToFloat32(FromFloat32(f))
					if math.Float32bits(got) != math.Float32bits(want) {
						t.Fatalf("Round(%#08x) = %#08x, want %#08x", b, math.Float32bits(got), math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestRoundErrorBound: property test that FP16 rounding error is within
// half a ULP for in-range normal values.
func TestRoundErrorBound(t *testing.T) {
	f := func(x float32) bool {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return true
		}
		// Clamp into the finite binary16 normal range.
		if x > maxFiniteFloat {
			x = maxFiniteFloat
		}
		if x < -maxFiniteFloat {
			x = -maxFiniteFloat
		}
		if ax := math.Abs(float64(x)); ax < 6.2e-05 {
			return true // subnormal range handled separately
		}
		r := Round(x)
		// Relative error of half-precision rounding <= 2^-11.
		return math.Abs(float64(r-x)) <= math.Abs(float64(x))*math.Pow(2, -11)+1e-30
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestRoundMonotonic(t *testing.T) {
	f := func(a, b float32) bool {
		if math.IsNaN(float64(a)) || math.IsNaN(float64(b)) {
			return true
		}
		if a > b {
			a, b = b, a
		}
		return Round(a) <= Round(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestSliceRoundTrip(t *testing.T) {
	src := []float32{0, 1, -2.5, 3.140625, 65504, -0.0009765625}
	hs := FromFloat32Slice(nil, src)
	back := ToFloat32Slice(nil, hs)
	if len(back) != len(src) {
		t.Fatalf("length mismatch: %d vs %d", len(back), len(src))
	}
	for i := range src {
		if back[i] != src[i] {
			t.Errorf("elem %d: %v -> %v", i, src[i], back[i])
		}
	}
}

func TestSliceReuse(t *testing.T) {
	dst := make([]Bits, 0, 8)
	src := []float32{1, 2, 3}
	out := FromFloat32Slice(dst, src)
	if &out[0] != &dst[:1][0] {
		t.Error("FromFloat32Slice did not reuse destination capacity")
	}
	f32 := make([]float32, 0, 8)
	back := ToFloat32Slice(f32, out)
	if &back[0] != &f32[:1][0] {
		t.Error("ToFloat32Slice did not reuse destination capacity")
	}
}

func TestRoundSliceInPlace(t *testing.T) {
	x := []float32{1.0000001, 2.0000002}
	RoundSlice(x)
	if x[0] != 1 || x[1] != 2 {
		t.Errorf("RoundSlice = %v, want [1 2]", x)
	}
}

func TestBytes(t *testing.T) {
	if Bytes(10) != 20 {
		t.Errorf("Bytes(10) = %d, want 20", Bytes(10))
	}
}

func BenchmarkFromFloat32(b *testing.B) {
	var sink Bits
	for i := 0; i < b.N; i++ {
		sink = FromFloat32(float32(i) * 0.001)
	}
	_ = sink
}

func BenchmarkToFloat32(b *testing.B) {
	var sink float32
	for i := 0; i < b.N; i++ {
		sink = ToFloat32(Bits(i & 0x7BFF))
	}
	_ = sink
}
