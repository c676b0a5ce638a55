//go:build !amd64

package tensor

import "math"

// rowMax returns the largest non-NaN element of row, or −∞.
func rowMax(row []float32) float32 { return maxFrom(row, float32(math.Inf(-1))) }

// scaleRow multiplies every element of row by s.
func scaleRow(row []float32, s float32) { scaleFrom(row, s) }

// expSum sets row[j] = float32(Exp(float64(row[j] − m))) and returns
// their float32 sum in column order.
func expSum(row []float32, m float32) float32 { return expSumFrom(row, m, 0) }

// silu applies v / float32(1+Exp(−v)) to every element of x.
func silu(x []float32) { siluFrom(x) }
