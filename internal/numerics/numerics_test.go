package numerics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		in   float32
		want Class
	}{
		{0, ClassZero},
		{float32(math.Copysign(0, -1)), ClassZero},
		{1.5, ClassNormal},
		{-2.25, ClassNormal},
		{float32(math.Inf(1)), ClassInf},
		{float32(math.Inf(-1)), ClassInf},
		{float32(math.NaN()), ClassNaN},
		{math.Float32frombits(1), ClassSubnormal},
	}
	for _, c := range cases {
		if got := Classify(c.in); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBF16RoundTripExact(t *testing.T) {
	// Values with <=7 mantissa bits must round-trip exactly.
	vals := []float32{0, 1, -1, 0.5, 2, 3, -3.5, 1024, 0.0078125, -65536}
	for _, v := range vals {
		b := BF16FromFloat32(v)
		if got := b.Float32(); got != v {
			t.Errorf("BF16 round trip %v -> %v", v, got)
		}
	}
}

func TestBF16RoundToNearestEven(t *testing.T) {
	// 1 + 2^-8 is exactly halfway between BF16(1.0) and BF16(1+2^-7);
	// RNE picks the even mantissa (1.0).
	x := float32(1 + 1.0/256)
	if got := BF16FromFloat32(x).Float32(); got != 1.0 {
		t.Errorf("halfway rounding got %v, want 1.0", got)
	}
	// 1 + 3*2^-8 is halfway between 1+2^-7 and 1+2^-6; even is 1+2^-6.
	x = float32(1 + 3.0/256)
	if got := BF16FromFloat32(x).Float32(); got != float32(1+1.0/64) {
		t.Errorf("halfway rounding got %v, want %v", got, 1+1.0/64)
	}
}

func TestBF16NaNPreserved(t *testing.T) {
	b := BF16FromFloat32(float32(math.NaN()))
	if !math.IsNaN(float64(b.Float32())) {
		t.Fatalf("NaN not preserved: %x", uint16(b))
	}
}

func TestBF16ErrorBound(t *testing.T) {
	// Property: relative error of BF16 conversion is at most 2^-8 for
	// normal values.
	f := func(x float32) bool {
		if Classify(x) != ClassNormal {
			return true
		}
		got := BF16FromFloat32(x).Float32()
		if Classify(got) != ClassNormal {
			return true // overflowed to inf at the format edge
		}
		rel := math.Abs(float64(got-x)) / math.Abs(float64(x))
		return rel <= 1.0/256
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestBF16FieldAccessors(t *testing.T) {
	b := BF16FromFloat32(-1.5) // sign 1, exp 127, mantissa 0b1000000
	if b.Sign() != 1 {
		t.Errorf("Sign = %d", b.Sign())
	}
	if b.ExpBits() != 127 {
		t.Errorf("ExpBits = %d", b.ExpBits())
	}
}
