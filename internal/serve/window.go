package serve

import "fmt"

// DefaultWindowWidth is the default SLO-accounting window: one minute,
// so "SLO-violation minutes" reads directly off the violated-window
// count.
const DefaultWindowWidth = 60.0

// WindowSpec parameterizes windowed report slicing: the run's timeline
// is cut into fixed-width windows and each completed request is judged
// against per-request bounds, attributed to the window of its *arrival*
// (an operator asks "which minutes were bad for the requests that showed
// up then", not "when did the stragglers finally finish"). A zero bound
// disables that check.
type WindowSpec struct {
	// Width is the window width in seconds (default DefaultWindowWidth).
	Width float64
	// TTFT is the per-request time-to-first-token bound, in seconds.
	TTFT float64
	// Latency is the per-request arrival-to-last-token bound, in seconds.
	Latency float64
}

// withDefaults materializes the zero-value defaults.
func (s WindowSpec) withDefaults() WindowSpec {
	if s.Width == 0 {
		s.Width = DefaultWindowWidth
	}
	return s
}

// WindowStat aggregates one window. Only counts and maxima are kept, so
// stats merged from replicas in any grouping are identical to stats
// accumulated by one observer — the same order-independence argument as
// Hist.
type WindowStat struct {
	// Arrivals counts requests that arrived in the window; Done counts
	// those (arrival-attributed) that completed; Violations counts the
	// completed ones that broke a bound.
	Arrivals, Done, Violations int
	// MaxTTFT and MaxLatency are the worst per-request values attributed
	// to the window, in seconds.
	MaxTTFT, MaxLatency float64
}

// Windows accumulates WindowStats over a run. It plugs into the
// scheduler through Config.Observe and merges across replicas
// losslessly, which is how internal/fleet and internal/autoscale compute
// SLO-violation minutes for a whole fleet.
type Windows struct {
	spec WindowSpec
	wins []WindowStat
}

// NewWindows returns an empty accumulator for the spec.
func NewWindows(spec WindowSpec) *Windows {
	return &Windows{spec: spec.withDefaults()}
}

// Reserve pre-grows the window slice to cover a horizon in seconds, so a
// run whose span is known up front performs no appends while observing.
func (w *Windows) Reserve(horizon float64) {
	w.grow(int(horizon / w.spec.Width))
}

// grow extends the slice so index i is addressable.
func (w *Windows) grow(i int) {
	for len(w.wins) <= i {
		w.wins = append(w.wins, WindowStat{})
	}
}

// Observe records one completed request, attributed to its arrival
// window. It has the Config.Observe signature.
func (w *Windows) Observe(r Request, firstAt, doneAt float64) {
	i := int(r.Arrival / w.spec.Width)
	if i < 0 {
		i = 0
	}
	w.grow(i)
	s := &w.wins[i]
	s.Arrivals++
	s.Done++
	ttft := firstAt - r.Arrival
	lat := doneAt - r.Arrival
	if ttft > s.MaxTTFT {
		s.MaxTTFT = ttft
	}
	if lat > s.MaxLatency {
		s.MaxLatency = lat
	}
	if (w.spec.TTFT > 0 && ttft > w.spec.TTFT) || (w.spec.Latency > 0 && lat > w.spec.Latency) {
		s.Violations++
	}
}

// Merge folds another accumulator into w window by window. Both sides
// must share a width — merging differently sliced timelines is reported
// as an error and merges nothing.
func (w *Windows) Merge(o *Windows) error {
	if o == nil || len(o.wins) == 0 {
		return nil
	}
	if o.spec.Width != w.spec.Width {
		return fmt.Errorf("serve: cannot merge windows of width %g into width %g", o.spec.Width, w.spec.Width)
	}
	w.grow(len(o.wins) - 1)
	for i, s := range o.wins {
		d := &w.wins[i]
		d.Arrivals += s.Arrivals
		d.Done += s.Done
		d.Violations += s.Violations
		if s.MaxTTFT > d.MaxTTFT {
			d.MaxTTFT = s.MaxTTFT
		}
		if s.MaxLatency > d.MaxLatency {
			d.MaxLatency = s.MaxLatency
		}
	}
	return nil
}

// Len is the number of windows touched so far.
func (w *Windows) Len() int { return len(w.wins) }

// Violated counts windows containing at least one violating request.
func (w *Windows) Violated() int {
	n := 0
	for i := range w.wins {
		if w.wins[i].Violations > 0 {
			n++
		}
	}
	return n
}

// ViolationMinutes converts the violated-window count to minutes of
// SLO breach — the operator-facing number a weekly error budget is
// written in. With the default one-minute width this equals Violated().
func (w *Windows) ViolationMinutes() float64 {
	return float64(w.Violated()) * w.spec.Width / 60
}
