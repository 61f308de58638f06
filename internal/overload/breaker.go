package overload

import (
	"fmt"
	"math"
)

// BreakerState is the circuit breaker's three-state machine.
type BreakerState int

const (
	// BreakerClosed passes traffic; the breaker is only watching.
	BreakerClosed BreakerState = iota
	// BreakerOpen blocks all dispatch to the replica until Cooldown
	// has elapsed since the trip.
	BreakerOpen
	// BreakerHalfOpen allows probe dispatches; Probes successes close
	// the breaker, any observed failure re-opens it.
	BreakerHalfOpen
)

// BreakerSpec configures the fleet router's per-replica circuit
// breaker. The failure signal is the replica's downtime share of a
// trailing window — fully determined by the seeded fault schedule, so
// breaker behavior is byte-identical at any parallelism.
type BreakerSpec struct {
	// Window is the trailing observation window, seconds (default 600).
	Window float64
	// Threshold is the downtime fraction of the window at or above
	// which the breaker trips. Must be in (0, 1] (default 0.25).
	Threshold float64
	// Cooldown is how long an open breaker waits before half-opening,
	// seconds (default 120).
	Cooldown float64
	// Probes is how many successful half-open dispatches close the
	// breaker again (default 2).
	Probes int
}

// WithDefaults fills unset fields.
func (s BreakerSpec) WithDefaults() BreakerSpec {
	if s.Window == 0 {
		s.Window = 600
	}
	if s.Threshold == 0 {
		s.Threshold = 0.25
	}
	if s.Cooldown == 0 {
		s.Cooldown = 120
	}
	if s.Probes == 0 {
		s.Probes = 2
	}
	return s
}

// Validate rejects malformed specs (after WithDefaults). The float
// checks are written !(x > 0) and the like so NaN fails them.
func (s BreakerSpec) Validate() error {
	if !(s.Threshold > 0 && s.Threshold <= 1) {
		return fmt.Errorf("overload: BreakerSpec.Threshold must be in (0,1], got %g", s.Threshold)
	}
	if !(s.Window > 0) || math.IsInf(s.Window, 1) {
		return fmt.Errorf("overload: BreakerSpec.Window must be finite and > 0, got %g", s.Window)
	}
	if !(s.Cooldown >= 0) || math.IsInf(s.Cooldown, 1) {
		return fmt.Errorf("overload: BreakerSpec.Cooldown must be finite and >= 0, got %g", s.Cooldown)
	}
	if s.Probes <= 0 {
		return fmt.Errorf("overload: BreakerSpec.Probes must be > 0, got %d", s.Probes)
	}
	return nil
}

// downSpan is one observed downtime interval.
type downSpan struct{ start, end float64 }

// Breaker tracks one replica. The router feeds it downtime intervals as
// their start times pass (ObserveDown), advances it at each routing
// event (Tick), consults Allow before dispatch, and reports successful
// half-open dispatches (Probe).
type Breaker struct {
	spec  BreakerSpec
	state BreakerState
	spans []downSpan
	// openedAt is when the breaker last tripped open.
	openedAt float64
	probes   int
	trips    int
}

// NewBreaker builds a closed breaker. The spec must already be
// defaulted and validated.
func NewBreaker(spec BreakerSpec) *Breaker {
	return &Breaker{spec: spec}
}

// State returns the current state.
func (b *Breaker) State() BreakerState { return b.state }

// Trips returns how many times the breaker has opened (including
// re-opens from half-open).
func (b *Breaker) Trips() int { return b.trips }

// ObserveDown records a downtime interval [start, end) the router just
// learned about (a crash beginning at start). A half-open breaker
// re-opens immediately — the probe found the replica still sick.
func (b *Breaker) ObserveDown(start, end float64) {
	b.spans = append(b.spans, downSpan{start: start, end: end})
	if b.state == BreakerHalfOpen {
		b.state = BreakerOpen
		b.openedAt = start
		b.trips++
	}
}

// downFrac is the downtime share of the trailing window ending at now.
// Future downtime (an interval whose end has not arrived yet) counts
// only its elapsed part — the breaker is not clairvoyant.
func (b *Breaker) downFrac(now float64) float64 {
	lo := now - b.spec.Window
	sum := 0.0
	for _, sp := range b.spans {
		s, e := sp.start, sp.end
		if s < lo {
			s = lo
		}
		if e > now {
			e = now
		}
		if e > s {
			sum += e - s
		}
	}
	return sum / b.spec.Window
}

// Tick advances the machine to event time now and returns the state:
// closed trips open once the window's downtime share reaches the
// threshold; open half-opens after the cooldown. Spans that slid fully
// out of the window are pruned.
func (b *Breaker) Tick(now float64) BreakerState {
	lo := now - b.spec.Window
	kept := b.spans[:0]
	for _, sp := range b.spans {
		if sp.end > lo {
			kept = append(kept, sp)
		}
	}
	b.spans = kept
	switch b.state {
	case BreakerClosed:
		if b.downFrac(now) >= b.spec.Threshold {
			b.state = BreakerOpen
			b.openedAt = now
			b.trips++
		}
	case BreakerOpen:
		if now-b.openedAt >= b.spec.Cooldown {
			b.state = BreakerHalfOpen
			b.probes = 0
		}
	case BreakerHalfOpen:
		// Waits on probes, not time.
	default:
		panic(fmt.Sprintf("overload: unknown breaker state %d", int(b.state)))
	}
	return b.state
}

// Allow reports whether the router may dispatch to the replica in the
// current state (closed or half-open).
func (b *Breaker) Allow() bool { return b.state != BreakerOpen }

// Probe records one successful half-open dispatch; after Probes of
// them the breaker closes and forgets the window (the replica has
// re-earned trust from a clean slate).
func (b *Breaker) Probe() {
	if b.state != BreakerHalfOpen {
		return
	}
	b.probes++
	if b.probes >= b.spec.Probes {
		b.state = BreakerClosed
		b.spans = b.spans[:0]
	}
}
