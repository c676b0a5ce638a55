package tensor

import "math"

// The constants of FreeBSD's e_exp.c, as math.Exp's pure-Go form uses
// them: ln 2 split into a high part with trailing zero bits and a low
// correction, and the Remez coefficients of R(r²) on [0, ln2/2].
const (
	expLn2Hi = 6.93147180369123816490e-01
	expLn2Lo = 1.90821492927058770002e-10
	expLog2e = 1.44269504088896338700e+00

	expOverflow  = 7.09782712893383973096e+02
	expUnderflow = -7.45133219101941108420e+02
	expNearZero  = 1.0 / (1 << 28) // 2**-28

	expP1 = 1.66666666666666657415e-01  /* 0x3FC55555; 0x55555555 */
	expP2 = -2.77777777770155933842e-03 /* 0xBF66C16C; 0x16BEBD93 */
	expP3 = 6.61375632143793436117e-05  /* 0x3F11566A; 0xAF25DE2C */
	expP4 = -1.65339022054652515390e-06 /* 0xBEBBBD41; 0xC5D26BF1 */
	expP5 = 4.13813679705723846039e-08  /* 0x3E663769; 0x72BEA4D0 */

	// expVecMax bounds the inputs the AVX2 form computes: every |x| ≤ 104
	// yields 2**k with |k| ≤ 151, so exp(x) is a normal float64 and the
	// final scaling is an exact exponent-field add. Lanes outside it take
	// Exp.
	expVecMax = 104
)

// Exp returns e**x by the algorithm of $GOROOT/src/math/exp.go (itself
// FreeBSD's e_exp.c): reduce x = k·ln2 + r with |r| ≤ ln2/2, evaluate
// exp(r) by the rational form 1 + r + r·c/(2−c), scale by 2**k. Every
// product is rounded by an explicit conversion, so no compiler fuses a
// multiply into an add and every architecture computes the same bits.
// The AVX2 kernels of this package evaluate the same operations in the
// same order on four float64 lanes.
//
// Its float32 rounding equals float32(math.Exp(x)) wherever softmax and
// SiLU call it; the package doc states the domain checked.
func Exp(x float64) float64 {
	switch {
	case math.IsNaN(x) || math.IsInf(x, 1):
		return x
	case math.IsInf(x, -1):
		return 0
	case x > expOverflow:
		return math.Inf(1)
	case x < expUnderflow:
		return 0
	case -expNearZero < x && x < expNearZero:
		return 1 + x
	}

	// Reduce; computed as r = hi - lo for extra precision.
	var k int
	switch {
	case x < 0:
		k = int(float64(expLog2e*x) - 0.5)
	case x > 0:
		k = int(float64(expLog2e*x) + 0.5)
	}
	hi := x - float64(float64(k)*expLn2Hi)
	lo := float64(float64(k) * expLn2Lo)

	r := hi - lo
	t := float64(r * r)
	c := r - float64(t*(expP1+float64(t*(expP2+float64(t*(expP3+float64(t*(expP4+float64(t*expP5)))))))))
	y := 1 - ((lo - float64(r*c)/(2-c)) - hi)
	return math.Ldexp(y, k)
}

// expSumFrom sets row[j] = float32(Exp(float64(row[j] − m))), the
// exponentials of a max-shifted softmax row, and returns sum plus each
// of them in column order, one float32 add at a time.
func expSumFrom(row []float32, m, sum float32) float32 {
	for j, v := range row {
		e := float32(Exp(float64(v - m)))
		row[j] = e
		sum += e
	}
	return sum
}

// siluFrom sets x[j] = x[j]·σ(x[j]), written v / float32(1+exp(−v)).
func siluFrom(x []float32) {
	for j, v := range x {
		x[j] = v / float32(1+Exp(float64(-v)))
	}
}

// maxFrom returns the largest of m and the elements of row, skipping NaN
// (v > m is false for it); on a tie the earlier value stays.
func maxFrom(row []float32, m float32) float32 {
	for _, v := range row {
		if v > m {
			m = v
		}
	}
	return m
}

// scaleFrom multiplies every element of row by s.
func scaleFrom(row []float32, s float32) {
	for j := range row {
		row[j] *= s
	}
}
