//go:build amd64

package tensor

import (
	"math"
	"testing"

	"github.com/hackkv/hack/internal/cpufeat"
)

// TestVectorExpTakesItsDomain makes sure the AVX2 exp kernels compute
// the inputs they are meant to, so the bit-for-bit tests above compare
// vector lanes rather than a kernel that always falls back: every group
// of four within |x| ≤ 104 runs on the vector lanes, and a group holding
// a lane outside it stops the kernel before it is written.
func TestVectorExpTakesItsDomain(t *testing.T) {
	if !cpufeat.AVX2 {
		t.Skip("no AVX2")
	}
	x := make([]float32, 64)
	for j := range x {
		x[j] = -expVecMax + float32(j)*3.25
	}
	in := append([]float32(nil), x...)
	if n, _ := expSumAVX2(&x[0], len(x), 0, 0); n != len(x) {
		t.Fatalf("expSumAVX2 wrote %d of %d in-domain elements", n, len(x))
	}
	want := append([]float32(nil), in...)
	expSumFrom(want, 0, 0)
	for j := range x {
		if math.Float32bits(x[j]) != math.Float32bits(want[j]) {
			t.Fatalf("exp(%v) = %v, want %v", in[j], x[j], want[j])
		}
	}
	copy(x, in)
	if n := siluAVX2(&x[0], len(x)); n != len(x) {
		t.Fatalf("siluAVX2 wrote %d of %d in-domain elements", n, len(x))
	}
	for _, bad := range []float32{float32(math.NaN()), math.Nextafter32(expVecMax, 200), float32(math.Inf(-1))} {
		copy(x, in)
		x[9] = bad
		if n, _ := expSumAVX2(&x[0], len(x), 0, 0); n != 8 || x[8] != in[8] {
			t.Fatalf("x[9] = %v: expSumAVX2 wrote %d elements (want 8) or touched the group", bad, n)
		}
		copy(x, in)
		x[9] = -bad
		if n := siluAVX2(&x[0], len(x)); n != 8 || x[8] != in[8] {
			t.Fatalf("x[9] = %v: siluAVX2 wrote %d elements (want 8) or touched the group", -bad, n)
		}
	}
}
