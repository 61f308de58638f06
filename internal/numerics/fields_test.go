package numerics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSplitBasic(t *testing.T) {
	// -1.5 = sign 1, mantissa 0b100 (3-bit), exp 0.
	f := Split(-1.5, 3)
	if f.Sign != 1 || f.Mantissa != 4 || f.Exp != 0 || f.Class != ClassNormal {
		t.Fatalf("Split(-1.5,3) = %+v", f)
	}
	if got := f.Value(); got != -1.5 {
		t.Errorf("Value() = %v", got)
	}
	// 6.0 = 1.5 * 2^2.
	f = Split(6, 3)
	if f.Sign != 0 || f.Mantissa != 4 || f.Exp != 2 {
		t.Fatalf("Split(6,3) = %+v", f)
	}
}

func TestSplitSpecials(t *testing.T) {
	if f := Split(0, 3); f.Class != ClassZero || f.Value() != 0 {
		t.Errorf("zero: %+v", f)
	}
	if f := Split(float32(math.Inf(-1)), 3); f.Class != ClassInf || !math.IsInf(f.Value(), -1) {
		t.Errorf("-inf: %+v", f)
	}
	if f := Split(float32(math.NaN()), 3); f.Class != ClassNaN || !math.IsNaN(f.Value()) {
		t.Errorf("nan: %+v", f)
	}
	// Subnormals flush to zero.
	if f := Split(math.Float32frombits(1), 3); f.Class != ClassZero {
		t.Errorf("subnormal: %+v", f)
	}
}

func TestSplitMantissaOverflowCarries(t *testing.T) {
	// 1.9999 with a 3-bit mantissa rounds up to 2.0 = 1.0 * 2^1.
	f := Split(1.9999, 3)
	if f.Mantissa != 0 || f.Exp != 1 {
		t.Fatalf("Split(1.9999,3) = %+v", f)
	}
	if f.Value() != 2.0 {
		t.Errorf("Value() = %v", f.Value())
	}
}

func TestSplitRoundTripProperty(t *testing.T) {
	// Property: the reconstructed value has relative error <= 2^-(manBits+1)
	// and preserves the sign and exponent neighborhood.
	for _, manBits := range []int{3, 4, 7} {
		mb := manBits
		f := func(x float32) bool {
			if Classify(x) != ClassNormal {
				return true
			}
			fields := Split(x, mb)
			v := fields.Value()
			rel := math.Abs(v-float64(x)) / math.Abs(float64(x))
			return rel <= math.Ldexp(1, -(mb+1))+1e-12
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
			t.Errorf("manBits=%d: %v", mb, err)
		}
	}
}

func TestSplitSignProperty(t *testing.T) {
	f := func(x float32) bool {
		if Classify(x) != ClassNormal {
			return true
		}
		fields := Split(x, 3)
		return (fields.Sign == 1) == (x < 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSplitBF16MatchesManualNarrowing(t *testing.T) {
	f := func(x float32) bool {
		a := SplitBF16(x, 3)
		b := Split(BF16FromFloat32(x).Float32(), 3)
		return a == b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestSplitPanicsOnBadManBits(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Split(1, 0)
}

// splitRef is Split as it was before the integer field split: the float64
// Frexp/Ldexp decomposition with a roundHalfEven of the scaled mantissa.
// Split must return the same Fields for every input and width.
func splitRef(x float32, manBits int) Fields {
	f := Fields{ManBits: manBits, Class: Classify(x)}
	if math.Signbit(float64(x)) {
		f.Sign = 1
	}
	switch f.Class {
	case ClassZero, ClassInf, ClassNaN:
		return f
	case ClassSubnormal:
		f.Class = ClassZero
		return f
	}
	frac, exp2 := math.Frexp(math.Abs(float64(x)))
	e := exp2 - 1
	scaled := (frac*2 - 1) * math.Ldexp(1, manBits)
	m := int(roundHalfEven(scaled))
	if m >= 1<<manBits {
		m = 0
		e++
	}
	f.Mantissa = m
	f.Exp = e
	return f
}

// roundHalfEven rounds x to the nearest integer, ties to even.
func roundHalfEven(x float64) float64 {
	floor := math.Floor(x)
	diff := x - floor
	switch {
	case diff > 0.5:
		return floor + 1
	case diff < 0.5:
		return floor
	default:
		if math.Mod(floor, 2) == 0 {
			return floor
		}
		return floor + 1
	}
}

func requireSplitMatchesRef(t *testing.T, bits uint32, manBits int) {
	t.Helper()
	x := math.Float32frombits(bits)
	if got, want := Split(x, manBits), splitRef(x, manBits); got != want {
		t.Fatalf("Split(%#08x, %d) = %+v, reference %+v", bits, manBits, got, want)
	}
}

// TestSplitMatchesReference holds Split to splitRef on every BF16 code
// point (as float32) at every width, and on every sign and exponent field
// with the retained mantissa at 0, 1, all ones but one and all ones and
// the dropped bits at 0, 1, half-1, half, half+1 and all ones: the ties,
// their neighbours and the carries into the exponent.
func TestSplitMatchesReference(t *testing.T) {
	for mb := 1; mb <= 23; mb++ {
		for c := uint32(0); c < 1<<16; c++ {
			requireSplitMatchesRef(t, c<<16, mb)
		}
		drop := uint(23 - mb)
		top := uint32(1)<<mb - 1
		var dropped []uint32
		if drop == 0 {
			dropped = []uint32{0}
		} else {
			half := uint32(1) << (drop - 1)
			dropped = []uint32{0, 1, half - 1, half, half + 1, 1<<drop - 1}
		}
		for sign := uint32(0); sign < 2; sign++ {
			for exp := uint32(0); exp < 256; exp++ {
				for _, kept := range []uint32{0, 1, top - 1, top} {
					for _, d := range dropped {
						if d >= 1<<drop {
							continue
						}
						requireSplitMatchesRef(t, sign<<31|exp<<23|(kept&top)<<drop|d, mb)
					}
				}
			}
		}
	}
}

// FuzzSplitMatchesReference holds Split to splitRef on raw float32 bits at
// any width in [1, 23] (manBits is taken modulo 23). The seed corpus holds
// NaN payloads, signed zeros, subnormals, the largest finite value and
// rounding ties.
func FuzzSplitMatchesReference(f *testing.F) {
	for _, c := range []struct {
		bits    uint32
		manBits uint8
	}{
		{0x7fc00000, 3}, {0xffc00001, 3}, {0x7f800001, 5}, {0xff812345, 7}, // NaN payloads
		{0x00000000, 3}, {0x80000000, 3}, // ±0
		{0x00000001, 3}, {0x807fffff, 7}, {0x00400000, 22}, // subnormals
		{0x7f7fffff, 3}, {0xff7fffff, 23}, {0x7f7fffff, 1}, // largest finite, carrying into the Inf exponent
		{0x3f880000, 3}, {0x3f980000, 3}, {0x3fa00000, 1}, {0x3fe00000, 1}, {0x3f800001, 22}, {0x3f800003, 22}, // ties to even, both ways
		{0x7f800000, 3}, {0xff800000, 23}, // ±Inf
	} {
		f.Add(c.bits, c.manBits)
	}
	f.Fuzz(func(t *testing.T, bits uint32, manBits uint8) {
		requireSplitMatchesRef(t, bits, 1+int(manBits)%23)
	})
}
