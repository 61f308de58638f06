package faults

import (
	"math"
	"strings"
	"testing"
)

func TestSpecValidate(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
		ok   bool
	}{
		{"zero", Spec{}, true},
		{"typical", Spec{MTBF: 3600, MTTR: 120, StragglerProb: 0.1, BootFailProb: 0.05, TransientProb: 0.01}, true},
		{"negative mtbf", Spec{MTBF: -1}, false},
		{"negative mttr", Spec{MTTR: -1}, false},
		{"prob above one", Spec{StragglerProb: 1.5}, false},
		{"negative prob", Spec{TransientProb: -0.1}, false},
		{"nan prob", Spec{BootFailProb: math.NaN()}, false},
		{"factor below one", Spec{StragglerProb: 0.5, StragglerFactor: 0.5}, false},
	}
	for _, c := range cases {
		if err := c.spec.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestDefaults(t *testing.T) {
	s := Spec{MTBF: 1000, StragglerProb: 0.5}.WithDefaults()
	if s.MTTR != DefaultMTTR {
		t.Errorf("MTTR default = %g, want %g", s.MTTR, DefaultMTTR)
	}
	if s.StragglerFactor != DefaultStragglerFactor {
		t.Errorf("StragglerFactor default = %g, want %g", s.StragglerFactor, DefaultStragglerFactor)
	}
}

func TestZeroSpecInactive(t *testing.T) {
	s, err := New(Spec{Seed: 42}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Active() {
		t.Error("zero-rate schedule reports Active")
	}
	if _, ok := s.DownAfter(0); ok {
		t.Error("zero-rate schedule has down intervals")
	}
	if s.Slowdown() != 1 {
		t.Errorf("zero-rate slowdown = %g, want 1", s.Slowdown())
	}
}

// The timeline must not depend on how far it was previously materialized:
// querying far ahead first, or in small steps, yields identical intervals.
func TestScheduleQueryOrderIndependent(t *testing.T) {
	spec := Spec{MTBF: 500, MTTR: 60, Seed: 7}
	a, _ := New(spec, 3)
	b, _ := New(spec, 3)

	a.ensure(1e6) // all at once
	for x := 0.0; x < 1e6; x += 1234.5 {
		b.ensure(x) // incrementally
	}
	b.ensure(1e6)

	if len(a.down) != len(b.down) {
		t.Fatalf("interval counts differ: %d vs %d", len(a.down), len(b.down))
	}
	for i := range a.down {
		if a.down[i] != b.down[i] {
			t.Fatalf("interval %d differs: %+v vs %+v", i, a.down[i], b.down[i])
		}
	}
	if len(a.down) == 0 {
		t.Fatal("expected crashes over a 1e6 s horizon at MTBF 500")
	}
}

func TestScheduleIntervalsSortedDisjoint(t *testing.T) {
	s, _ := New(Spec{MTBF: 200, MTTR: 50, Seed: 11}, 0)
	s.ensure(1e5)
	prevEnd := 0.0
	for i, iv := range s.down {
		if iv.Start < prevEnd {
			t.Fatalf("interval %d starts at %g before previous end %g", i, iv.Start, prevEnd)
		}
		if iv.End < iv.Start {
			t.Fatalf("interval %d inverted: %+v", i, iv)
		}
		prevEnd = iv.End
	}
}

func TestDownAfterAndDownAt(t *testing.T) {
	s, _ := New(Spec{MTBF: 300, MTTR: 100, Seed: 3}, 1)
	iv, ok := s.DownAfter(0)
	if !ok {
		t.Fatal("no down interval")
	}
	mid := (iv.Start + iv.End) / 2
	if !s.DownAt(mid) {
		t.Errorf("DownAt(%g) = false inside %+v", mid, iv)
	}
	if s.DownAt(iv.Start - 1) {
		t.Error("DownAt before first crash")
	}
	if s.UpAt(mid) {
		t.Error("UpAt inside a down interval")
	}
	// Cursor advance: the interval after this one starts at or after its end.
	next, ok := s.DownAfter(iv.End)
	if !ok || next.Start < iv.End {
		t.Errorf("DownAfter(%g) = %+v, want a later interval", iv.End, next)
	}
}

// Counter-hashed draws are pure functions of their arguments and land
// near their configured probabilities over many trials.
func TestCounterDraws(t *testing.T) {
	spec := Spec{BootFailProb: 0.2, TransientProb: 0.05, Seed: 123}
	if spec.BootFails(1, 1) != spec.BootFails(1, 1) {
		t.Fatal("BootFails not deterministic")
	}
	const n = 20000
	boot, trans := 0, 0
	for i := 0; i < n; i++ {
		if spec.BootFails(i, 0) {
			boot++
		}
		if spec.Transient(i, 0) {
			trans++
		}
	}
	if f := float64(boot) / n; math.Abs(f-0.2) > 0.02 {
		t.Errorf("boot-failure frequency %g, want ~0.2", f)
	}
	if f := float64(trans) / n; math.Abs(f-0.05) > 0.01 {
		t.Errorf("transient frequency %g, want ~0.05", f)
	}
	if (Spec{Seed: 1}).BootFails(0, 0) || (Spec{Seed: 1}).Transient(0, 0) {
		t.Error("zero-probability draws fired")
	}
}

func TestStragglerDraw(t *testing.T) {
	spec := Spec{StragglerProb: 0.25, StragglerFactor: 3, Seed: 55}
	const n = 8000
	hit := 0
	for i := 0; i < n; i++ {
		s, err := New(spec, i)
		if err != nil {
			t.Fatal(err)
		}
		switch s.Slowdown() {
		case 3:
			hit++
		case 1:
		default:
			t.Fatalf("slowdown %g, want 1 or 3", s.Slowdown())
		}
	}
	if f := float64(hit) / n; math.Abs(f-0.25) > 0.03 {
		t.Errorf("straggler frequency %g, want ~0.25", f)
	}
}

func TestNines(t *testing.T) {
	if got := Nines(0.999); math.Abs(got-3) > 1e-9 {
		t.Errorf("Nines(0.999) = %g, want 3", got)
	}
	if !math.IsInf(Nines(1), 1) {
		t.Error("Nines(1) not +Inf")
	}
	if Nines(0) != 0 {
		t.Error("Nines(0) != 0")
	}
	if got := NinesString(1); got != "all nines" {
		t.Errorf("NinesString(1) = %q", got)
	}
	if got := NinesString(0.99); got != "2.00 nines" {
		t.Errorf("NinesString(0.99) = %q", got)
	}
}

// TestSpecRejectsNonFiniteKnobs: every float knob must be finite and in
// its domain, with an error naming the field. A NaN MTBF or MTTR used to
// panic in DownAfter and an infinite one to loop in ensure, so the rows
// stop at New and never draw a timeline.
func TestSpecRejectsNonFiniteKnobs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		field string
		spec  Spec
	}{
		{"MTBF", Spec{MTBF: nan}},
		{"MTBF", Spec{MTBF: inf}},
		{"MTTR", Spec{MTBF: 100, MTTR: nan}},
		{"MTTR", Spec{MTBF: 100, MTTR: inf}},
		{"StragglerProb", Spec{StragglerProb: nan}},
		{"StragglerFactor", Spec{StragglerProb: 1, StragglerFactor: nan}},
		{"StragglerFactor", Spec{StragglerProb: 1, StragglerFactor: inf}},
		{"BootFailProb", Spec{BootFailProb: nan}},
		{"TransientProb", Spec{TransientProb: nan}},
	}
	for _, c := range cases {
		if _, err := New(c.spec, 0); err == nil || !strings.Contains(err.Error(), c.field) {
			t.Errorf("%+v: New error %v, want one naming %s", c.spec, err, c.field)
		}
	}
}
