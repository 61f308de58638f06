package core

import (
	"math"
	"testing"

	"mugi/internal/nonlinear"
)

func TestLUTStoresExactValues(t *testing.T) {
	l := NewLUT(nonlinear.Exp, 3, -3, 4)
	// Entry for sign=1 (only plane for exp), mantissa 4 (=1.5), exp 1:
	// value -3.0 -> exp(-3).
	row := l.Row(1, 4, -3, 8)
	if len(row) != 8 {
		t.Fatalf("row len %d", len(row))
	}
	if got, want := row[4], math.Exp(-3); math.Abs(got-want) > 1e-15 {
		t.Errorf("row[4] = %v, want exp(-3) = %v", got, want)
	}
}

func TestLUTRowWindowValidates(t *testing.T) {
	l := NewLUT(nonlinear.Exp, 3, -3, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	l.Row(1, 0, -4, 8)
}

func TestLUTSignPlanes(t *testing.T) {
	l := NewLUT(nonlinear.SiLU, 3, -2, 5)
	pos := l.Row(0, 0, -2, 8)
	neg := l.Row(1, 0, -2, 8)
	for i := range pos {
		x := math.Ldexp(1, -2+i)
		if math.Abs(pos[i]-nonlinear.Exact(nonlinear.SiLU, x)) > 1e-15 {
			t.Errorf("pos[%d] wrong", i)
		}
		if math.Abs(neg[i]-nonlinear.Exact(nonlinear.SiLU, -x)) > 1e-15 {
			t.Errorf("neg[%d] wrong", i)
		}
	}
}

func TestLUTValidates(t *testing.T) {
	for name, f := range map[string]func(){
		"manBits": func() { NewLUT(nonlinear.Exp, 0, -3, 4) },
		"window":  func() { NewLUT(nonlinear.Exp, 3, 5, 4) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestLUTMetadata(t *testing.T) {
	l := NewLUT(nonlinear.GELU, 4, -6, 3)
	if l.Op() != nonlinear.GELU {
		t.Errorf("metadata: %v", l.Op())
	}
}

func TestTanhOverflowAsymptotes(t *testing.T) {
	a := New(Config{Op: nonlinear.Tanh, LUTEMin: -4, LUTEMax: 3})
	if got := a.Approx(1e6); got != 1 {
		t.Errorf("tanh(+big) = %v", got)
	}
	if got := a.Approx(-1e6); got != -1 {
		t.Errorf("tanh(-big) = %v", got)
	}
}
