//go:build amd64

package tensor

import (
	"math"

	"github.com/hackkv/hack/internal/cpufeat"
)

// rowMaxAVX2 returns the largest non-NaN element of x[0:n], or −∞, with
// eight lanes that each keep the scalar loop's v > m test (VMAXPS with
// the accumulator second returns it on NaN and on a tie). n must be a
// positive multiple of 8. Only a zero maximum's sign may differ from the
// scalar loop's, and it cannot change a softmax: v − (±0) is v for v ≠ 0,
// and exp(±0) is 1.
//
//go:noescape
func rowMaxAVX2(x *float32, n int) float32

// scaleAVX2 multiplies x[0:n] by s, eight lanes per VMULPS. n must be a
// positive multiple of 8.
//
//go:noescape
func scaleAVX2(x *float32, n int, s float32)

// expSumAVX2 sets x[j] = float32(Exp(float64(x[j] − m))) four lanes at
// a time, with Exp's operations in Exp's order, adds each result to sum
// in column order (four serial VADDSS per group, so the chain is the
// scalar loop's), and returns how many elements it wrote and the sum. It
// stops before the first group of four holding a lane outside
// |x[j] − m| ≤ expVecMax (or NaN), for Exp to finish. n must be a
// multiple of 4.
//
//go:noescape
func expSumAVX2(x *float32, n int, m, sum float32) (int, float32)

// siluAVX2 sets x[j] = x[j] / float32(1+Exp(float64(−x[j]))) four lanes
// at a time and returns how many elements it wrote, stopping as
// expSumAVX2 does. n must be a multiple of 4.
//
//go:noescape
func siluAVX2(x *float32, n int) int

// rowMax returns the largest non-NaN element of row, or −∞.
func rowMax(row []float32) float32 {
	m, done := float32(math.Inf(-1)), 0
	if cpufeat.AVX2 {
		if done = len(row) &^ 7; done > 0 {
			m = rowMaxAVX2(&row[0], done)
		}
	}
	return maxFrom(row[done:], m)
}

// scaleRow multiplies every element of row by s.
func scaleRow(row []float32, s float32) {
	done := 0
	if cpufeat.AVX2 {
		if done = len(row) &^ 7; done > 0 {
			scaleAVX2(&row[0], done, s)
		}
	}
	scaleFrom(row[done:], s)
}

// expSum sets row[j] = float32(Exp(float64(row[j] − m))) and returns
// their float32 sum in column order. A final partial group runs on the
// vector lanes from a copy padded with m (exp(0) = 1, in the domain);
// its sum is then taken in Go, so the pad never reaches it.
func expSum(row []float32, m float32) float32 {
	var sum float32
	if cpufeat.AVX2 {
		for len(row) >= 4 {
			var n int
			n, sum = expSumAVX2(&row[0], len(row)&^3, m, sum)
			if row = row[n:]; len(row) < 4 {
				break
			}
			// These four hold a lane outside the vector domain.
			sum = expSumFrom(row[:4], m, sum)
			row = row[4:]
		}
		if len(row) > 0 {
			pad := [4]float32{m, m, m, m}
			copy(pad[:], row)
			if n, _ := expSumAVX2(&pad[0], 4, m, 0); n == 4 {
				for j := range row {
					row[j] = pad[j]
					sum += pad[j]
				}
				return sum
			}
		}
	}
	return expSumFrom(row, m, sum)
}

// silu applies v / float32(1+Exp(−v)) to every element of x, a final
// partial group from a copy padded with zeros.
func silu(x []float32) {
	if cpufeat.AVX2 {
		for len(x) >= 4 {
			if x = x[siluAVX2(&x[0], len(x)&^3):]; len(x) < 4 {
				break
			}
			siluFrom(x[:4])
			x = x[4:]
		}
		if len(x) > 0 {
			var pad [4]float32
			copy(pad[:], x)
			if siluAVX2(&pad[0], 4) == 4 {
				copy(x, pad[:])
				return
			}
		}
	}
	siluFrom(x)
}
