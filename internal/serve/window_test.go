package serve

import "testing"

func TestWindowsObserveAndViolations(t *testing.T) {
	w := NewWindows(WindowSpec{Width: 60, TTFT: 1, Latency: 10})
	// Window 0: one clean request, one TTFT violation.
	w.Observe(Request{Arrival: 5}, 5.5, 8)
	w.Observe(Request{Arrival: 30}, 32, 35)
	// Window 2: latency violation (attributed to arrival, completes later).
	w.Observe(Request{Arrival: 125}, 125.5, 140)
	// Window 3: clean.
	w.Observe(Request{Arrival: 190}, 190.2, 195)

	if w.Len() != 4 {
		t.Fatalf("Len = %d, want 4", w.Len())
	}
	if got := w.wins[0]; got.Arrivals != 2 || got.Violations != 1 {
		t.Fatalf("window 0 = %+v, want 2 arrivals 1 violation", got)
	}
	if got := w.wins[1]; got != (WindowStat{}) {
		t.Fatalf("window 1 = %+v, want empty", got)
	}
	if got := w.wins[2]; got.Violations != 1 || got.MaxLatency != 15 {
		t.Fatalf("window 2 = %+v, want 1 violation maxLatency 15", got)
	}
	if w.Violated() != 2 {
		t.Fatalf("Violated = %d, want 2", w.Violated())
	}
	if w.ViolationMinutes() != 2 {
		t.Fatalf("ViolationMinutes = %g, want 2", w.ViolationMinutes())
	}
}

// TestWindowsMergeMatchesDirect pins the order-independence contract:
// stats split across two accumulators and merged equal stats observed
// directly, regardless of which side saw which request.
func TestWindowsMergeMatchesDirect(t *testing.T) {
	spec := WindowSpec{Width: 60, TTFT: 1, Latency: 10}
	direct := NewWindows(spec)
	a, b := NewWindows(spec), NewWindows(spec)
	obs := []struct {
		r               Request
		firstAt, doneAt float64
	}{
		{Request{Arrival: 5}, 5.5, 8},
		{Request{Arrival: 30}, 32, 35},
		{Request{Arrival: 65}, 65.1, 80},
		{Request{Arrival: 125}, 125.5, 140},
	}
	for i, o := range obs {
		direct.Observe(o.r, o.firstAt, o.doneAt)
		if i%2 == 0 {
			a.Observe(o.r, o.firstAt, o.doneAt)
		} else {
			b.Observe(o.r, o.firstAt, o.doneAt)
		}
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	if a.Len() != direct.Len() {
		t.Fatalf("merged Len = %d, direct %d", a.Len(), direct.Len())
	}
	for i := 0; i < direct.Len(); i++ {
		if a.wins[i] != direct.wins[i] {
			t.Fatalf("window %d: merged %+v, direct %+v", i, a.wins[i], direct.wins[i])
		}
	}
	// Merging an empty accumulator is a no-op, whatever its width.
	if err := a.Merge(NewWindows(spec)); err != nil {
		t.Fatal(err)
	}
	if err := a.Merge(nil); err != nil {
		t.Fatal(err)
	}
	// Merging differently sliced timelines is rejected, not mangled.
	other := NewWindows(WindowSpec{Width: 30})
	other.Observe(Request{Arrival: 5}, 5.5, 8)
	if err := a.Merge(other); err == nil {
		t.Fatal("merging mismatched window widths did not error")
	}
	if a.Violated() != direct.Violated() {
		t.Fatalf("Violated diverged after empty merges")
	}
}

func TestWindowsReserve(t *testing.T) {
	w := NewWindows(WindowSpec{})
	if w.spec.Width != DefaultWindowWidth {
		t.Fatalf("default width = %g, want %g", w.spec.Width, DefaultWindowWidth)
	}
	w.Reserve(600)
	if w.Len() != 11 {
		t.Fatalf("Len after Reserve(600) = %d, want 11", w.Len())
	}
	// Zero bounds: nothing violates.
	w.Observe(Request{Arrival: 300}, 400, 500)
	if w.Violated() != 0 {
		t.Fatalf("zero-bound spec must never violate")
	}
}

// TestObserveHookFiresPerCompletion wires Observe through a real
// scheduler run and checks every completed request is seen exactly once
// with sane timestamps.
func TestObserveHookFiresPerCompletion(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Kind: Poisson, Rate: 2, Requests: 12, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	seen := 0
	cfg.Observe = func(r Request, firstAt, doneAt float64) {
		seen++
		if firstAt < r.Arrival || doneAt < firstAt {
			t.Fatalf("request %d: arrival %g firstAt %g doneAt %g out of order", r.ID, r.Arrival, firstAt, doneAt)
		}
	}
	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if seen != rep.Completed || seen != 12 {
		t.Fatalf("observed %d completions, report says %d of 12", seen, rep.Completed)
	}
}
