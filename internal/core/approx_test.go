package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"mugi/internal/nonlinear"
	"mugi/internal/numerics"
)

func newExpApprox() *Approx {
	// The paper's softmax window: exponents concentrated in [-3, 4].
	return New(Config{Op: nonlinear.Exp, LUTEMin: -6, LUTEMax: 5})
}

func TestConfigDefaults(t *testing.T) {
	a := newExpApprox()
	cfg := a.Config()
	if cfg.ManBits != 3 || cfg.WindowWidth != 8 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if a.CyclesPerElement() != 8 {
		t.Errorf("cycles/elem %v", a.CyclesPerElement())
	}
	if a.Name() != "VLP" || a.Op() != nonlinear.Exp {
		t.Errorf("metadata %q %v", a.Name(), a.Op())
	}
}

func TestLUTSizeConfig(t *testing.T) {
	cfg := LUTSizeConfig(nonlinear.Exp, 10, 4)
	if cfg.LUTEMin != -5 || cfg.LUTEMax != 4 {
		t.Fatalf("window [%d,%d]", cfg.LUTEMin, cfg.LUTEMax)
	}
	a := New(cfg)
	if n := a.lut.EMax - a.lut.EMin + 1; n != 10 {
		t.Errorf("stored exponents %d", n)
	}
}

func TestNewValidates(t *testing.T) {
	for name, cfg := range map[string]Config{
		"narrow": {Op: nonlinear.Exp, LUTEMin: 0, LUTEMax: 3},
		"width0": {Op: nonlinear.Exp, LUTEMin: -8, LUTEMax: 4, WindowWidth: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			New(cfg)
		}()
	}
}

func TestApproxAccuracyInWindow(t *testing.T) {
	a := newExpApprox()
	a.SetWindow(-3) // window [-3, 4]
	// In-window inputs must match exp within the 3-bit mantissa rounding
	// error: |d exp/dx| * |dx| <= exp(x) * |x| * 2^-4 relative.
	for x := -15.0; x < -0.15; x += 0.01 {
		f := numerics.SplitBF16(float32(x), 3)
		if f.Exp < -3 || f.Exp > 4 {
			continue
		}
		got := a.Approx(x)
		want := math.Exp(x)
		// Input approximation moves x by |f.Value()-x|, so the output
		// relative error is exactly expm1 of that shift.
		bound := math.Expm1(math.Abs(f.Value()-x)) + 1e-6
		if rel := math.Abs(got-want) / want; rel > bound {
			t.Fatalf("x=%v: got %v want %v rel %v bound %v", x, got, want, rel, bound)
		}
	}
}

func TestApproxMatchesLUTDirect(t *testing.T) {
	// Property: the functional Approx equals direct LUT lookup of the
	// split fields (the Fig. 3(c) two-step split is exact).
	a := newExpApprox()
	a.SetWindow(-3)
	f := func(raw float64) bool {
		x := -math.Mod(math.Abs(raw), 40) // softmax inputs <= 0
		word := float64(numerics.BF16FromFloat32(float32(x)).Float32())
		fields := numerics.Split(float32(word), 3)
		want := a.lut.lookupClamped(fields, -3, 8, word)
		return a.Approx(x) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestApproxTemporalAgreesWithFunctional(t *testing.T) {
	// The cycle-faithful temporal walk must agree exactly with the fast
	// functional path, and subscription cycles must equal the coded fields.
	// Inputs the LUT holds no row for (outside the window, special values,
	// and positive exp inputs, whose sign plane is not stored) subscribe
	// nothing and report cycles -1.
	for _, op := range []nonlinear.Op{nonlinear.Exp, nonlinear.SiLU, nonlinear.GELU} {
		a := New(Config{Op: op, LUTEMin: -8, LUTEMax: 4})
		a.SetWindow(-3)
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 500; i++ {
			x := rng.NormFloat64() * 4
			want := a.Approx(x)
			got, manCycle, expCycle := a.ApproxTemporal(x)
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%v x=%v: temporal %v functional %v", op, x, got, want)
			}
			f := numerics.SplitBF16(float32(x), 3)
			stored := f.Class == numerics.ClassNormal && f.Exp >= -3 && f.Exp <= 4 &&
				!(op == nonlinear.Exp && f.Sign == 0)
			if !stored {
				if manCycle != -1 || expCycle != -1 {
					t.Fatalf("%v x=%v: cycles %d, %d for an input with no LUT row", op, x, manCycle, expCycle)
				}
				continue
			}
			if manCycle != f.Mantissa {
				t.Fatalf("mantissa cycle %d want %d", manCycle, f.Mantissa)
			}
			if expCycle != f.Exp+3 {
				t.Fatalf("exp cycle %d want %d", expCycle, f.Exp+3)
			}
		}
	}
}

func TestApproxSpecialValues(t *testing.T) {
	a := newExpApprox()
	if got := a.Approx(0); got != 1 {
		t.Errorf("exp(0) = %v", got)
	}
	if got := a.Approx(math.Inf(-1)); got <= 0 || got > 1e-2 {
		t.Errorf("exp(-inf) = %v (want small positive saturation)", got)
	}
	if !math.IsNaN(a.Approx(math.NaN())) {
		t.Error("NaN not propagated")
	}
	s := New(Config{Op: nonlinear.SiLU, LUTEMin: -8, LUTEMax: 4})
	if got := s.Approx(0); got != 0 {
		t.Errorf("SiLU(0) = %v", got)
	}
	if got := s.Approx(100); got != 100 {
		t.Errorf("SiLU overflow passthrough = %v", got)
	}
	if got := s.Approx(-100); got != 0 {
		t.Errorf("SiLU(-100) = %v", got)
	}
}

func TestUnderflowTreatedAsZeroInput(t *testing.T) {
	a := newExpApprox()
	a.SetWindow(-3)
	// Exponent below -3, e.g. x = -2^-5: treated as 0 -> exp(0) = 1.
	if got := a.Approx(-1.0 / 32); got != 1 {
		t.Errorf("underflow exp = %v", got)
	}
	s := New(Config{Op: nonlinear.GELU, LUTEMin: -8, LUTEMax: 4})
	s.SetWindow(-3)
	if got := s.Approx(1.0 / 32); got != 0 {
		t.Errorf("underflow GELU = %v", got)
	}
}

func TestSetWindowClamps(t *testing.T) {
	a := newExpApprox() // LUT [-6, 5]
	a.SetWindow(-100)
	if lo, _ := a.Window(); lo != -6 {
		t.Errorf("clamp low: %d", lo)
	}
	a.SetWindow(100)
	if lo, hi := a.Window(); lo != -2 || hi != 5 {
		t.Errorf("clamp high: [%d,%d]", lo, hi)
	}
}

func TestSelectWindowMax(t *testing.T) {
	a := newExpApprox()
	a.SelectWindowMax([]float64{-0.3, -1.5, -12}) // exps -2, 0, 3
	if lo, hi := a.Window(); hi != 3 || lo != -4 {
		t.Errorf("window [%d,%d], want [-4,3]", lo, hi)
	}
	// All-special input leaves the window unchanged.
	before, _ := a.Window()
	a.SelectWindowMax([]float64{0, math.NaN()})
	if after, _ := a.Window(); after != before {
		t.Error("window moved on special-only input")
	}
}

func TestSelectWindowMassCoversCluster(t *testing.T) {
	a := New(Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 5})
	// Cluster at exponent -8 .. -6 (values around 2^-7).
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = -1.0 / 128 * (1 + float64(i%3))
	}
	a.SelectWindowMass(xs)
	lo, hi := a.Window()
	if lo > -7 || hi < -5 {
		t.Errorf("window [%d,%d] misses cluster", lo, hi)
	}
}

func TestVLPSoftmaxSumsToOne(t *testing.T) {
	a := newExpApprox()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		xs := make([]float64, 64)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 3
		}
		dst := make([]float64, len(xs))
		a.SelectWindowMax(xs)
		a.Softmax(dst, xs)
		sum := 0.0
		for _, v := range dst {
			if v < 0 {
				t.Fatal("negative softmax output")
			}
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("sum %v", sum)
		}
	}
}

func TestSoftmaxRequiresExp(t *testing.T) {
	s := New(Config{Op: nonlinear.SiLU, LUTEMin: -8, LUTEMax: 4})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Softmax(make([]float64, 1), make([]float64, 1))
}

func TestVLPSoftmaxCloseToExact(t *testing.T) {
	a := newExpApprox()
	rng := rand.New(rand.NewSource(6))
	xs := make([]float64, 128)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2
	}
	got := make([]float64, len(xs))
	want := make([]float64, len(xs))
	a.SelectWindowMax(xs)
	a.Softmax(got, xs)
	nonlinear.SoftmaxExact(want, xs)
	for i := range xs {
		if d := math.Abs(got[i] - want[i]); d > 0.05 {
			t.Fatalf("elem %d: |%v - %v| = %v", i, got[i], want[i], d)
		}
	}
}

func TestTuneWindowFindsCluster(t *testing.T) {
	// Samples clustered around exponent -7 must pull eMax toward the
	// cluster rather than the default top.
	xs := make([]float64, 200)
	rng := rand.New(rand.NewSource(7))
	for i := range xs {
		xs[i] = -(1.0 / 128) * (0.8 + 0.4*rng.Float64())
	}
	best, err := TuneWindow(nonlinear.Exp, 8, xs, -4, 4)
	if err < 0 {
		t.Fatal("negative error")
	}
	if best > -3 {
		t.Errorf("tuned eMax %d did not move toward cluster", best)
	}
}

func TestTuneWindowValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	TuneWindow(nonlinear.Exp, 8, nil, 3, 2)
}

func TestVLPBeatsWideWindowOnConcentratedInputs(t *testing.T) {
	// The value-centric claim: with inputs concentrated in a narrow
	// exponent band, a tuned VLP window yields lower weighted error than
	// an untuned window pinned far away.
	rng := rand.New(rand.NewSource(8))
	xs := make([]float64, 2000)
	for i := range xs {
		xs[i] = -math.Abs(rng.NormFloat64()) - 0.25 // exps mostly [-2, 2]
	}
	tuned := New(Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 6})
	tuned.SelectWindowMass(xs)
	pinned := New(Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 6})
	pinned.SetWindow(-10)
	if nonlinear.WeightedError(tuned, xs) >= nonlinear.WeightedError(pinned, xs) {
		t.Error("tuned window should have lower weighted error")
	}
}

func TestSinCosApproximation(t *testing.T) {
	sin := New(Config{Op: nonlinear.Sin, ManBits: 5, LUTEMin: -9, LUTEMax: 1})
	sin.SetWindow(-6)
	cos := New(Config{Op: nonlinear.Cos, ManBits: 5, LUTEMin: -9, LUTEMax: 1})
	cos.SetWindow(-6)
	for x := -12.0; x <= 12.0; x += 0.173 {
		if d := math.Abs(sin.Approx(x) - math.Sin(x)); d > 0.08 {
			t.Errorf("sin(%v): err %v", x, d)
		}
		if d := math.Abs(cos.Approx(x) - math.Cos(x)); d > 0.08 {
			t.Errorf("cos(%v): err %v", x, d)
		}
	}
	// sin(0)=0 and cos(0)=1 exactly through the underflow clamp.
	if sin.Approx(0) != 0 || cos.Approx(0) != 1 {
		t.Errorf("zero values: sin %v cos %v", sin.Approx(0), cos.Approx(0))
	}
}

func TestSinPeriodicityProperty(t *testing.T) {
	// Range reduction makes the approximation exactly 2π-periodic.
	sin := New(Config{Op: nonlinear.Sin, ManBits: 5, LUTEMin: -9, LUTEMax: 1})
	sin.SetWindow(-6)
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.Abs(raw) > 1e6 {
			return true
		}
		a := sin.Approx(raw)
		b := sin.Approx(raw + 2*math.Pi)
		return math.Abs(a-b) < 0.1 // BF16 rounding of the shifted argument
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestApproxMatchesFieldPath holds Approx, bit for bit, to the field path
// it is defined by: narrow the (range-reduced) input to BF16, split it with
// numerics.Split and look the fields up with lookupClamped. It covers every
// BF16 code at every window position of each op, at mantissa widths on
// both sides of BF16's seven bits.
func TestApproxMatchesFieldPath(t *testing.T) {
	ops := []nonlinear.Op{nonlinear.Exp, nonlinear.SiLU, nonlinear.GELU, nonlinear.Tanh, nonlinear.Sin, nonlinear.Cos}
	for _, op := range ops {
		for _, mb := range []int{3, 5, 7, 8} {
			a := New(Config{Op: op, ManBits: mb, LUTEMin: -7, LUTEMax: 3})
			for lo := a.cfg.LUTEMin; lo+a.cfg.WindowWidth-1 <= a.cfg.LUTEMax; lo++ {
				a.SetWindow(lo)
				for c := 0; c < 1<<16; c++ {
					x := float64(numerics.BF16(c).Float32())
					word := float64(numerics.BF16FromFloat32(float32(a.reduce(x))).Float32())
					want := a.lut.lookupClamped(numerics.Split(float32(word), mb), lo, a.cfg.WindowWidth, word)
					if got := a.Approx(x); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%v ManBits %d window %d code %#04x (%v): Approx %v, field path %v", op, mb, lo, c, x, got, want)
					}
				}
			}
		}
	}
}
