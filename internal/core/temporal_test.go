package core

import (
	"math"
	"testing"
	"testing/quick"
)

func TestTemporalConverterFiresOnce(t *testing.T) {
	tc := NewTemporalConverter(3)
	fired := -1
	for c := 0; c < 8; c++ {
		if tc.Step(c) {
			if fired != -1 {
				t.Fatal("fired twice")
			}
			fired = c
		}
	}
	if fired != 3 {
		t.Fatalf("fired at %d", fired)
	}
}

func TestTemporalConverterValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewTemporalConverter(-1)
}

func TestWindowCycles(t *testing.T) {
	if WindowCycles(3) != 8 {
		t.Errorf("3-bit window = %d", WindowCycles(3))
	}
	if WindowCycles(7) != 128 {
		t.Errorf("7-bit window = %d", WindowCycles(7))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for bits=17")
		}
	}()
	WindowCycles(17)
}

func TestAccumulatorHoldsTByAddend(t *testing.T) {
	acc := NewAccumulator(2.5)
	for c := 0; c < 8; c++ {
		if got := acc.Step(); got != 2.5*float64(c) {
			t.Fatalf("cycle %d: %v", c, got)
		}
	}
}

func TestMultiplyViaSubscriptionEqualsProduct(t *testing.T) {
	// Property: the temporal machinery computes integer-magnitude × float
	// products (Fig. 2d) up to the rounding of m-term repeated addition.
	f := func(mag uint8, w float64) bool {
		if math.IsNaN(w) || math.IsInf(w, 0) {
			return true
		}
		m := int(mag % 8)
		got := MultiplyViaSubscription(m, w, 3)
		want := float64(m) * w
		if math.IsInf(want, 0) {
			return math.IsInf(got, int(math.Copysign(1, want)))
		}
		return math.Abs(got-want) <= 8e-15*math.Abs(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestMultiplyViaSubscriptionPaperExample(t *testing.T) {
	// Fig. 2(b-d): i=3, w=1 -> 3 at cycle 3.
	if got := MultiplyViaSubscription(3, 1, 3); got != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMultiplyViaSubscriptionValidatesWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MultiplyViaSubscription(8, 1, 3)
}
