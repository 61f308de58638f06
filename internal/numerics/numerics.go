// Package numerics implements the number format of Mugi's input words,
// BF16, and the sign-mantissa-exponent field split that drives VLP temporal
// coding.
//
// Both are exact bit-level implementations: BF16 encoding rounds to nearest
// even, decoding is lossless, the field split rounds the mantissa to nearest
// even with the carry raising the exponent, and special values (zero,
// infinity, NaN, subnormals) follow IEEE-754 conventions.
package numerics

import "math"

// Class labels the special-value category of a floating-point input. The
// Mugi post-processing (PP) block multiplexes these onto dedicated outputs
// instead of subscribing a LUT row.
type Class uint8

const (
	// ClassNormal marks ordinary finite nonzero values.
	ClassNormal Class = iota
	// ClassZero marks positive or negative zero.
	ClassZero
	// ClassInf marks positive or negative infinity.
	ClassInf
	// ClassNaN marks not-a-number payloads.
	ClassNaN
	// ClassSubnormal marks denormalized values (exponent field zero,
	// nonzero mantissa).
	ClassSubnormal
)

// Classify reports the special-value class of x.
func Classify(x float32) Class {
	bits := math.Float32bits(x)
	exp := (bits >> 23) & 0xff
	man := bits & 0x7fffff
	switch {
	case exp == 0xff && man != 0:
		return ClassNaN
	case exp == 0xff:
		return ClassInf
	case exp == 0 && man == 0:
		return ClassZero
	case exp == 0:
		return ClassSubnormal
	default:
		return ClassNormal
	}
}

// BF16 is a bfloat16 value stored in its 16-bit wire format:
// 1 sign bit, 8 exponent bits, 7 mantissa bits.
type BF16 uint16

// BF16FromFloat32 converts x to bfloat16 with round-to-nearest-even.
// NaNs are quieted so the payload survives truncation.
func BF16FromFloat32(x float32) BF16 {
	bits := math.Float32bits(x)
	if Classify(x) == ClassNaN {
		// Force a quiet NaN that remains NaN after truncation.
		return BF16(bits>>16 | 0x0040)
	}
	// Round to nearest even on the truncated 16 bits.
	const roundBit = uint32(1) << 15
	lower := bits & 0xffff
	bits >>= 16
	if lower > roundBit || (lower == roundBit && bits&1 == 1) {
		bits++
	}
	return BF16(bits)
}

// Float32 decodes the bfloat16 value exactly.
func (b BF16) Float32() float32 {
	return math.Float32frombits(uint32(b) << 16)
}

// Sign reports the sign bit (1 for negative).
func (b BF16) Sign() int { return int(b >> 15) }

// ExpBits returns the raw (biased) 8-bit exponent field.
func (b BF16) ExpBits() int { return int(b>>7) & 0xff }
