package nonlinear

import (
	"math"
	"testing"
	"testing/quick"
)

func TestExactValues(t *testing.T) {
	cases := []struct {
		op   Op
		x    float64
		want float64
		tol  float64
	}{
		{Exp, 0, 1, 0},
		{Exp, 1, math.E, 1e-15},
		{SiLU, 0, 0, 0},
		{SiLU, 10, 10 / (1 + math.Exp(-10)), 1e-12},
		{GELU, 0, 0, 0},
		{Tanh, 0, 0, 0},
	}
	for _, c := range cases {
		if got := Exact(c.op, c.x); math.Abs(got-c.want) > c.tol {
			t.Errorf("Exact(%v, %v) = %v, want %v", c.op, c.x, got, c.want)
		}
	}
}

func TestGELUSymmetryProperty(t *testing.T) {
	// GELU(x) + GELU(-x) = x for all x.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 30 {
			return true
		}
		return math.Abs(Exact(GELU, x)+Exact(GELU, -x)-x) < 1e-9*math.Max(1, math.Abs(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSiLUSymmetryProperty(t *testing.T) {
	// SiLU(x) - SiLU(-x) = x.
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 30 {
			return true
		}
		return math.Abs(Exact(SiLU, x)-Exact(SiLU, -x)-x) < 1e-9*math.Max(1, math.Abs(x))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxExact(t *testing.T) {
	x := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	SoftmaxExact(dst, x)
	sum := 0.0
	for _, v := range dst {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("softmax sum = %v", sum)
	}
	for i := 1; i < len(dst); i++ {
		if dst[i] <= dst[i-1] {
			t.Errorf("softmax not monotone: %v", dst)
		}
	}
}

func TestSoftmaxStability(t *testing.T) {
	// Huge logits must not overflow thanks to max subtraction.
	x := []float64{1e30, 1e30, 1e30}
	dst := make([]float64, 3)
	SoftmaxExact(dst, x)
	for _, v := range dst {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("unstable softmax: %v", dst)
		}
	}
}

func TestSoftmaxShiftInvarianceProperty(t *testing.T) {
	f := func(raw []float64, shift float64) bool {
		if len(raw) == 0 || len(raw) > 64 || math.IsNaN(shift) || math.Abs(shift) > 100 {
			return true
		}
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && math.Abs(v) < 100 {
				x = append(x, v)
			}
		}
		if len(x) == 0 {
			return true
		}
		a := make([]float64, len(x))
		b := make([]float64, len(x))
		SoftmaxExact(a, x)
		shifted := make([]float64, len(x))
		for i := range x {
			shifted[i] = x[i] + shift
		}
		SoftmaxExact(b, shifted)
		for i := range a {
			if math.Abs(a[i]-b[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestSoftmaxAllFlushedFallsBackToUniform(t *testing.T) {
	x := []float64{-100, -200, -150}
	dst := make([]float64, 3)
	Softmax(dst, x, func(float64) float64 { return 0 })
	for _, v := range dst {
		if math.Abs(v-1.0/3) > 1e-12 {
			t.Fatalf("fallback not uniform: %v", dst)
		}
	}
}

func TestSoftmaxLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	SoftmaxExact(make([]float64, 2), make([]float64, 3))
}

func TestSinCosExact(t *testing.T) {
	for x := -3.0; x <= 3.0; x += 0.1 {
		if Exact(Sin, x) != math.Sin(x) || Exact(Cos, x) != math.Cos(x) {
			t.Fatalf("trig mismatch at %v", x)
		}
	}
	if Sin.String() != "sin" || Cos.String() != "cos" {
		t.Error("trig op names")
	}
}

func TestOpStringUnknown(t *testing.T) {
	if Op(99).String() == "" {
		t.Error("unknown op should render")
	}
}

func TestExactPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Exact(Op(99), 1)
}
