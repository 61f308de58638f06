package numerics

import (
	"fmt"
	"math"
)

// Fields is the sign-mantissa-exponent (S-M-E) split of a floating-point
// input, as produced by the Mugi M-proc and E-proc blocks (paper §4, phase 1
// "input field split"). Mantissa is the rounded magnitude *without* the
// implicit leading one; Exp is the unbiased power-of-two exponent.
type Fields struct {
	// Sign is 0 for non-negative, 1 for negative inputs.
	Sign int
	// Mantissa is the rounded mantissa magnitude in [0, 2^ManBits).
	Mantissa int
	// Exp is the unbiased exponent. For the rounded value v,
	// |v| = (1 + Mantissa/2^ManBits) * 2^Exp.
	Exp int
	// ManBits is the retained mantissa width after rounding.
	ManBits int
	// Class flags special values; when Class != ClassNormal the remaining
	// fields are unspecified and the PP block muxes a special output.
	Class Class
}

// Value reconstructs the approximate value represented by the fields. No
// production code calls it: it stays as the decoder that this package's
// tests, TestSplitExhaustiveOverBF16 among them, hold every split to.
func (f Fields) Value() float64 {
	switch f.Class {
	case ClassZero:
		return 0
	case ClassInf:
		if f.Sign == 1 {
			return math.Inf(-1)
		}
		return math.Inf(1)
	case ClassNaN:
		return math.NaN()
	}
	v := (1 + float64(f.Mantissa)/float64(int(1)<<f.ManBits)) * math.Ldexp(1, f.Exp)
	if f.Sign == 1 {
		return -v
	}
	return v
}

// Split performs the input field split with the mantissa rounded to manBits
// bits (round-to-nearest-even on the dropped bits, with mantissa overflow
// carrying into the exponent). Subnormal float32 inputs are flushed to zero,
// matching the hardware, which treats anything below the LUT window as an
// underflow.
//
// A normal input's fields come from RoundFields over its float32 bits, so
// below 23 bits the largest finite value rounds up to Exp 128 with
// Mantissa 0.
// core.Approx reads a normal BF16 word's fields the same way without
// building a Fields, and falls back to Split for zeros, subnormals, NaN,
// infinities and mantissas wider than BF16's 7 bits.
//
// manBits must be in [1, 23].
func Split(x float32, manBits int) Fields {
	if manBits < 1 || manBits > 23 {
		panic(fmt.Sprintf("numerics: Split manBits %d out of range [1,23]", manBits))
	}
	bits := math.Float32bits(x)
	f := Fields{Sign: int(bits >> 31), ManBits: manBits, Class: Classify(x)}
	switch f.Class {
	case ClassZero, ClassInf, ClassNaN:
		return f
	case ClassSubnormal:
		f.Class = ClassZero
		return f
	}
	em := RoundFields(bits, manBits)
	f.Mantissa = int(em & (1<<manBits - 1))
	f.Exp = int(em>>manBits) - 127
	return f
}

// RoundFields rounds the mantissa field of the float32 bits of a normal
// value to manBits bits, ties to even, and returns the biased exponent and
// rounded mantissa fields as one integer, exponent<<manBits | mantissa.
// Rounding both fields as one integer lets a mantissa carry raise the
// exponent. manBits must be in [1, 23].
func RoundFields(bits uint32, manBits int) uint32 {
	em := bits & 0x7fffffff
	if drop := uint(23 - manBits); drop > 0 {
		em = (em + 1<<(drop-1) - 1 + (em>>drop)&1) >> drop
	}
	return em
}

// SplitBF16 first narrows x to BF16 (the Mugi input word) and then splits,
// mirroring the on-chip datapath where the input SRAM holds BF16 words.
// No production code calls it: it stays as the reference that internal/core's
// tests hold core.Approx's direct BF16-word field read to.
func SplitBF16(x float32, manBits int) Fields {
	return Split(BF16FromFloat32(x).Float32(), manBits)
}
