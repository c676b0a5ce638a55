// Package fp16 implements IEEE 754 binary16 (half-precision) conversion
// and slice helpers.
//
// The disaggregated-inference baseline stores and transmits KV data in
// FP16; HACK's requantization-elimination buffer (the trailing block of V)
// is also kept in FP16. This package provides the storage format used by
// those code paths, including round-to-nearest-even conversion from
// float32 and exact widening back to float32.
package fp16

import "math"

// Bits is a raw IEEE 754 binary16 value: 1 sign bit, 5 exponent bits,
// 10 mantissa bits.
type Bits uint16

const (
	signMask16     = 0x8000
	expMask16      = 0x7C00
	fracMask16     = 0x03FF
	expBias16      = 15
	expBias32      = 127
	maxFiniteFloat = 65504 // largest finite binary16 value
)

// PositiveInfinity is the binary16 encoding of +Inf.
const PositiveInfinity Bits = 0x7C00

// NegativeInfinity is the binary16 encoding of -Inf.
const NegativeInfinity Bits = 0xFC00

// FromFloat32 converts a float32 to binary16 using round-to-nearest-even,
// the rounding mode GPUs use for FP16 stores. Values whose magnitude
// exceeds the largest finite half (65504) become infinities; subnormal
// results are produced where required.
func FromFloat32(f float32) Bits {
	b := math.Float32bits(f)
	sign := Bits(b>>16) & signMask16
	exp := int32(b>>23) & 0xFF
	frac := b & 0x7FFFFF

	switch {
	case exp == 0xFF: // NaN or Inf
		if frac != 0 {
			// Preserve a quiet NaN, keeping the top mantissa bit set.
			return sign | expMask16 | 0x0200 | Bits(frac>>13)
		}
		return sign | expMask16
	case exp == 0 && frac == 0: // signed zero
		return sign
	}

	// Unbias, rebias for binary16.
	e := exp - expBias32 + expBias16
	if e >= 0x1F {
		// Overflow to infinity.
		return sign | expMask16
	}
	if e <= 0 {
		// Subnormal half or underflow to zero.
		if e < -10 {
			return sign
		}
		// Add the implicit leading 1, then shift into subnormal position.
		m := frac | 0x800000
		shift := uint32(14 - e)
		half := uint32(1) << (shift - 1)
		rounded := m + half
		// Round to nearest even.
		if rounded&(half<<1-1) == half && m&(uint32(1)<<shift) == 0 {
			rounded = m
		}
		return sign | Bits(rounded>>shift)
	}

	// Normal number: round 23-bit mantissa to 10 bits, nearest even.
	m := frac >> 13
	rem := frac & 0x1FFF
	if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
		m++
		if m == 0x400 { // mantissa overflow ripples into exponent
			m = 0
			e++
			if e >= 0x1F {
				return sign | expMask16
			}
		}
	}
	return sign | Bits(e)<<10 | Bits(m)
}

// ToFloat32 widens a binary16 value to float32 exactly (every binary16
// value is representable in binary32).
func ToFloat32(h Bits) float32 {
	sign := uint32(h&signMask16) << 16
	exp := uint32(h&expMask16) >> 10
	frac := uint32(h & fracMask16)

	switch {
	case exp == 0x1F: // Inf / NaN
		if frac == 0 {
			return math.Float32frombits(sign | 0x7F800000)
		}
		return math.Float32frombits(sign | 0x7F800000 | frac<<13 | 0x400000)
	case exp == 0:
		if frac == 0 {
			return math.Float32frombits(sign)
		}
		// Subnormal: normalize. value = frac * 2^-24; after k left
		// shifts the leading 1 sits at bit 10 and the exponent is
		// -14-k (biased: 113-k).
		e := int32(-14 + expBias32)
		for frac&0x400 == 0 {
			frac <<= 1
			e--
		}
		frac &= fracMask16
		return math.Float32frombits(sign | uint32(e)<<23 | frac<<13)
	}
	return math.Float32frombits(sign | (exp-expBias16+expBias32)<<23 | frac<<13)
}

// Round quantizes f through binary16 and back, returning the value an
// FP16 store/load pair would produce. Every |f| in [2⁻¹⁴, 2¹⁶) — the
// quantizer's metadata and the FP16 V rows, all but always — rounds in
// place: its 23-bit mantissa rounds to 10 bits, ties to even, a carry
// running into the exponent, and anything past 65504 becomes ±Inf, which
// is what the conversion pair does to it. The rest (subnormal halves,
// zeros, Inf, NaN) takes the conversion pair.
func Round(f float32) float32 {
	b := math.Float32bits(f)
	if e := b >> 23 & 0xff; e-(expBias32-14) < 30 {
		b += 0xfff + b>>13&1
		b &^= 0x1fff
		if b&0x7fffffff > 0x477fe000 { // past 65504
			b = b&0x80000000 | 0x7f800000
		}
		return math.Float32frombits(b)
	}
	return ToFloat32(FromFloat32(f))
}

// MaxFinite returns the largest finite binary16 value as a float32.
func MaxFinite() float32 { return maxFiniteFloat }

// FromFloat32Slice converts a float32 slice to binary16 in bulk,
// reusing dst's capacity (dst may be nil) and returning the result. It
// is the batch form of FromFloat32 used by the KV wire framing and the
// FP16 cache paths in place of per-element conversion loops.
func FromFloat32Slice(dst []Bits, src []float32) []Bits {
	if cap(dst) < len(src) {
		dst = make([]Bits, len(src))
	}
	dst = dst[:len(src)]
	for i, f := range src {
		dst[i] = FromFloat32(f)
	}
	return dst
}

// ToFloat32Slice widens a binary16 slice to float32 in bulk, reusing
// dst's capacity (dst may be nil) and returning the result.
func ToFloat32Slice(dst []float32, src []Bits) []float32 {
	if cap(dst) < len(src) {
		dst = make([]float32, len(src))
	}
	dst = dst[:len(src)]
	for i, h := range src {
		dst[i] = ToFloat32(h)
	}
	return dst
}

// RoundSlice rounds every element of x through binary16 in place and
// returns x. It models storing a tensor to an FP16 KV cache.
func RoundSlice(x []float32) []float32 {
	for i, f := range x {
		x[i] = Round(f)
	}
	return x
}

// Bytes returns the number of bytes an FP16 tensor with n elements
// occupies on the wire and in cache.
func Bytes(n int) int { return 2 * n }
