package core

import (
	"math"
	"math/rand"
	"testing"

	"mugi/internal/nonlinear"
)

func TestOnlineWindowValidates(t *testing.T) {
	a := New(Config{Op: nonlinear.Exp, LUTEMin: -12, LUTEMax: 6})
	for _, d := range []float64{0, 1, -0.5} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("decay %v: expected panic", d)
				}
			}()
			NewOnlineWindow(a, d)
		}()
	}
	o := NewOnlineWindow(a, 0.9)
	defer func() {
		if recover() == nil {
			t.Error("length mismatch should panic")
		}
	}()
	o.Eval(make([]float64, 1), make([]float64, 2))
}

func TestOnlineWindowTracksDrift(t *testing.T) {
	// The distribution drifts from exponents around 0 to exponents around
	// -7 over 40 batches; the online window must follow, keeping the
	// weighted error near the oracle while a static window degrades.
	rng := rand.New(rand.NewSource(9))
	mkBatch := func(center float64) []float64 {
		xs := make([]float64, 256)
		for i := range xs {
			xs[i] = -math.Exp2(center + rng.NormFloat64()*0.5)
		}
		return xs
	}
	adaptive := NewOnlineWindow(New(Config{Op: nonlinear.Exp, LUTEMin: -12, LUTEMax: 6}), 0.7)
	static := New(Config{Op: nonlinear.Exp, LUTEMin: -12, LUTEMax: 6})
	static.SetWindow(-3) // tuned for the initial distribution

	var adaptiveErr, staticErr float64
	dst := make([]float64, 256)
	for b := 0; b < 40; b++ {
		center := 0.0 - 7.0*float64(b)/39.0 // drift 0 -> -7
		xs := mkBatch(center)
		adaptive.Eval(dst, xs)
		for i, x := range xs {
			adaptiveErr += math.Abs(dst[i] - math.Exp(x))
		}
		for _, x := range xs {
			staticErr += math.Abs(static.Approx(x) - math.Exp(x))
		}
	}
	if adaptiveErr >= staticErr {
		t.Errorf("adaptive err %v should beat static %v under drift", adaptiveErr, staticErr)
	}
	// After the drift, the adaptive window must sit near the new mass.
	lo, hi := adaptive.a.Window()
	if lo > -8 || hi < -7 {
		t.Errorf("window [%d,%d] did not follow drift to exponent -7", lo, hi)
	}
}

func TestOnlineWindowStationaryMatchesMass(t *testing.T) {
	// On a stationary distribution the online window converges to the
	// same choice as the offline mass selection.
	rng := rand.New(rand.NewSource(10))
	xs := make([]float64, 2048)
	for i := range xs {
		xs[i] = -math.Exp2(-2 + rng.NormFloat64())
	}
	online := NewOnlineWindow(New(Config{Op: nonlinear.Exp, LUTEMin: -12, LUTEMax: 6}), 0.9)
	for b := 0; b < 10; b++ {
		online.Observe(xs)
	}
	offline := New(Config{Op: nonlinear.Exp, LUTEMin: -12, LUTEMax: 6})
	offline.SelectWindowMass(xs)
	gotLo, _ := online.a.Window()
	wantLo, _ := offline.Window()
	if d := gotLo - wantLo; d < -1 || d > 1 {
		t.Errorf("online window lo %d vs offline %d", gotLo, wantLo)
	}
}
