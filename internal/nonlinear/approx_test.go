package nonlinear

import (
	"math"
	"math/rand"
	"testing"
)

func TestPWLInterpolatesEndpoints(t *testing.T) {
	p := NewPWL(Exp, -8, 0, 22)
	// At segment endpoints the PWL is exact by construction.
	for s := 0; s <= 22; s++ {
		x := -8 + float64(s)*8/22
		if d := math.Abs(p.Approx(x) - math.Exp(x)); d > 1e-12 {
			t.Errorf("endpoint %v: err %v", x, d)
		}
	}
}

func TestPWLWithinChordBound(t *testing.T) {
	// For convex exp, the chord overestimates; the max gap on a segment of
	// width h is bounded by h^2/8 * max|f''|.
	p := NewPWL(Exp, -8, 0, 22)
	h := 8.0 / 22
	bound := h * h / 8 * math.Exp(0)
	for x := -8.0; x <= 0; x += 0.003 {
		d := p.Approx(x) - math.Exp(x)
		if d < -1e-12 || d > bound+1e-12 {
			t.Fatalf("x=%v: chord error %v out of [0,%v]", x, d, bound)
		}
	}
}

func TestPWLAsymptotes(t *testing.T) {
	sm := NewPWLSoftmax(-20, 22)
	if sm.Approx(-50) != 0 {
		t.Errorf("exp below range = %v", sm.Approx(-50))
	}
	act := NewPWLActivation(SiLU, 5, 22)
	if act.Approx(-10) != 0 {
		t.Errorf("SiLU below range = %v", act.Approx(-10))
	}
	if act.Approx(10) != 10 {
		t.Errorf("SiLU above range = %v", act.Approx(10))
	}
	g := NewPWLActivation(GELU, 5, 22)
	if g.Approx(12) != 12 {
		t.Errorf("GELU above range = %v", g.Approx(12))
	}
	th := NewPWL(Tanh, -4, 4, 16)
	if th.Approx(-100) != -1 || th.Approx(100) != 1 {
		t.Errorf("tanh asymptotes: %v %v", th.Approx(-100), th.Approx(100))
	}
}

func TestPWLConstructorsValidate(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("segments", func() { NewPWL(Exp, -1, 0, 0) })
	mustPanic("range", func() { NewPWL(Exp, 1, 0, 4) })
	mustPanic("softmax range", func() { NewPWLSoftmax(1, 4) })
	mustPanic("activation range", func() { NewPWLActivation(SiLU, -1, 4) })
}

func TestPWLMetadata(t *testing.T) {
	p := NewPWLSoftmax(-20, 22)
	if p.Name() != "PWL" || p.Op() != Exp {
		t.Errorf("metadata: %q %v", p.Name(), p.Op())
	}
	if p.CyclesPerElement() != 5 { // ceil(log2(22))
		t.Errorf("cycles %v", p.CyclesPerElement())
	}
	if small := NewPWL(Exp, -1, 0, 3); small.CyclesPerElement() != 2 {
		t.Errorf("small cycles %v", small.CyclesPerElement())
	}
}

func TestTaylorExpNearCenter(t *testing.T) {
	for _, center := range []float64{0, -2, -5} {
		ta := NewTaylor(Exp, center, 9)
		for dx := -0.5; dx <= 0.5; dx += 0.05 {
			x := center + dx
			rel := math.Abs(ta.Approx(x)-math.Exp(x)) / math.Exp(x)
			if rel > 1e-9 {
				t.Errorf("center %v x %v: rel err %v", center, x, rel)
			}
		}
	}
}

func TestTaylorExpDegradesFarFromCenter(t *testing.T) {
	ta := NewTaylor(Exp, -5, 5)
	near := math.Abs(ta.Approx(-5.1)-math.Exp(-5.1)) / math.Exp(-5.1)
	far := math.Abs(ta.Approx(-12)-math.Exp(-12)) / math.Exp(-12)
	if far <= near {
		t.Errorf("expected degradation: near %v far %v", near, far)
	}
}

func TestTaylorNonNegativeExp(t *testing.T) {
	ta := NewTaylor(Exp, 0, 3)
	for x := -20.0; x <= 0; x += 0.1 {
		if ta.Approx(x) < 0 {
			t.Fatalf("negative exp approx at %v", x)
		}
	}
}

func TestTaylorTanh(t *testing.T) {
	ta := NewTaylor(Tanh, 0, 9)
	for x := -0.5; x <= 0.5; x += 0.05 {
		if d := math.Abs(ta.Approx(x) - math.Tanh(x)); d > 1e-5 {
			t.Errorf("tanh taylor at %v: err %v", x, d)
		}
	}
}

func TestTaylorMetadata(t *testing.T) {
	ta := NewTaylor(Exp, -3, 9)
	if ta.Degree() != 9 || ta.Name() != "Taylor" {
		t.Errorf("metadata: %d %q", ta.Degree(), ta.Name())
	}
	if ta.CyclesPerElement() != 9 {
		t.Errorf("cycles %v", ta.CyclesPerElement())
	}
}

func TestTaylorValidates(t *testing.T) {
	for _, f := range []func(){
		func() { NewTaylor(Exp, 0, 0) },
		func() { NewTaylor(SiLU, 0, 3) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestPAHardSwish(t *testing.T) {
	pa := NewPA(SiLU)
	// Exact at the clamp regions.
	if pa.Approx(-4) != 0 {
		t.Errorf("PA(-4) = %v", pa.Approx(-4))
	}
	if pa.Approx(4) != 4 {
		t.Errorf("PA(4) = %v", pa.Approx(4))
	}
	// Reasonably close in the middle.
	for x := -3.0; x <= 3.0; x += 0.1 {
		if d := math.Abs(pa.Approx(x) - Exact(SiLU, x)); d > 0.15 {
			t.Errorf("PA SiLU at %v: err %v", x, d)
		}
	}
}

func TestPAGELU(t *testing.T) {
	pa := NewPA(GELU)
	for x := -3.0; x <= 3.0; x += 0.1 {
		if d := math.Abs(pa.Approx(x) - Exact(GELU, x)); d > 0.2 {
			t.Errorf("PA GELU at %v: err %v", x, d)
		}
	}
}

func TestPAValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPA(Exp)
}

func TestErrorCurveAndSummarize(t *testing.T) {
	p := NewPWLSoftmax(-16, 22)
	curve := ErrorCurve(p, -16, 0, 512)
	if len(curve) != 512 {
		t.Fatalf("curve len %d", len(curve))
	}
	st := Summarize(curve)
	if st.MaxAbsRel <= 0 || st.RMSE <= 0 {
		t.Errorf("degenerate stats: %+v", st)
	}
	if st.MeanAbsRel > st.MaxAbsRel {
		t.Errorf("mean %v > max %v", st.MeanAbsRel, st.MaxAbsRel)
	}
}

func TestWeightedErrorPrefersMatchingWindow(t *testing.T) {
	// With inputs concentrated in [-4, 0], a PWL covering [-4,0] must beat
	// one covering [-40,0] with the same segment count.
	rng := rand.New(rand.NewSource(3))
	samples := make([]float64, 4000)
	for i := range samples {
		samples[i] = -4 * rng.Float64()
	}
	tight := NewPWLSoftmax(-4, 22)
	wide := NewPWLSoftmax(-40, 22)
	if WeightedError(tight, samples) >= WeightedError(wide, samples) {
		t.Error("tight window should have lower weighted error")
	}
}
