// Package overload holds the pure, deterministic state machines behind
// graceful degradation under overload: tenant priority classes, a
// per-class token-bucket admission controller with strict-priority
// eviction, a brownout ladder that degrades service instead of dropping
// it, and a circuit breaker the fleet router consults before
// dispatching to a recently-failing replica.
//
// The package is a leaf — it imports only internal/arch (for the DVFS
// operating points a brownout step can downshift to) and the standard
// library — so serve, fleet and autoscale can all share one copy of the
// overload semantics without an import cycle. Every machine here is
// driven exclusively by simulated time and queue observations passed in
// by the caller: no wall clock, no global state, no randomness. Feeding
// the same observation sequence always yields the same decisions, which
// is what keeps serving output byte-identical at any runner parallelism.
//
// The design follows the metastable-failure literature's split between
// *load shedding* (admission: refuse work you cannot finish, cheapest
// first) and *service degradation* (brownout: finish all admitted work,
// but worse), with the circuit breaker guarding the third failure
// amplifier — retry traffic concentrating on a sick replica.
package overload

import (
	"fmt"
	"math"
)

// Class is a request's tenant/priority class. The zero value is
// Standard so untagged traffic — every trace that predates tenancy —
// keeps its old meaning: ordinary paying work, neither protected nor
// sacrificial. Strict-priority comparisons go through Priority, not the
// raw enum value.
type Class int

const (
	// Standard is the default paying tier: normal admission weight,
	// never brownout-degraded, evicted only for Interactive work.
	Standard Class = iota
	// Interactive is the latency-sensitive tier (chat, completion UIs):
	// tightest SLO, admitted by evicting queued lower-priority work
	// when the queue is full, never itself evicted or degraded.
	Interactive
	// BestEffort is the sacrificial tier (batch, backfill): first to be
	// shed, evicted and brownout-capped; its SLO only bounds total
	// latency loosely.
	BestEffort
	// NumClasses sizes per-class arrays.
	NumClasses = 3
)

// Priority returns the strict-priority rank of the class: lower is more
// important. Interactive(0) < Standard(1) < BestEffort(2).
func (c Class) Priority() int {
	switch c {
	case Interactive:
		return 0
	case Standard:
		return 1
	case BestEffort:
		return 2
	default:
		panic(fmt.Sprintf("overload: unknown class %d", int(c)))
	}
}

// String names the class for renderings and trace specs.
func (c Class) String() string {
	switch c {
	case Interactive:
		return "interactive"
	case Standard:
		return "standard"
	case BestEffort:
		return "best-effort"
	default:
		panic(fmt.Sprintf("overload: unknown class %d", int(c)))
	}
}

// ParseClass parses a class name as printed by String.
func ParseClass(s string) (Class, error) {
	for _, c := range Classes() {
		if c.String() == s {
			return c, nil
		}
	}
	return 0, fmt.Errorf("overload: unknown class %q (want interactive, standard or best-effort)", s)
}

// Classes lists all classes in strict-priority (display) order.
func Classes() []Class {
	return []Class{Interactive, Standard, BestEffort}
}

// SLO is a per-class latency objective used by the price-of-priority
// planner: a class "meets SLO" when its p99s stay under these bounds.
// A zero bound is unconstrained.
type SLO struct {
	// TTFTP99 bounds p99 time-to-first-token, seconds.
	TTFTP99 float64
	// LatencyP99 bounds p99 request latency, seconds.
	LatencyP99 float64
}

// Met reports whether observed p99s satisfy the objective.
func (s SLO) Met(ttftP99, latencyP99 float64) bool {
	if s.TTFTP99 > 0 && ttftP99 > s.TTFTP99 {
		return false
	}
	if s.LatencyP99 > 0 && latencyP99 > s.LatencyP99 {
		return false
	}
	return true
}

// DefaultSLO returns the per-class objective used when a planner spec
// leaves a class's SLO zero: interactive is TTFT-bound tightly, standard
// loosely, best-effort only by an end-to-end latency ceiling.
func DefaultSLO(c Class) SLO {
	switch c {
	case Interactive:
		return SLO{TTFTP99: 2, LatencyP99: 60}
	case Standard:
		return SLO{TTFTP99: 10, LatencyP99: 120}
	case BestEffort:
		return SLO{LatencyP99: 600}
	default:
		panic(fmt.Sprintf("overload: unknown class %d", int(c)))
	}
}

// DefaultClientBackoff is the base client retry backoff (seconds) when a
// ClientRetrySpec enables retries without choosing one.
const DefaultClientBackoff = 10.0

// ClientRetrySpec models client behavior after a shed: the feedback loop
// that turns transient overload into a metastable failure. Attempt k of
// a shed request re-arrives k*Backoff seconds later (linear backoff) and
// repeats the admission decision; after MaxAttempts sheds the client
// gives up and the request counts as shed for good. The zero value
// disables client retries — sheds are final, as before this knob.
type ClientRetrySpec struct {
	// Backoff is the base backoff in seconds (attempt k waits
	// k*Backoff). Zero with retries enabled means DefaultClientBackoff.
	Backoff float64
	// MaxAttempts is the client's retry budget; 0 disables retries.
	MaxAttempts int
}

// Enabled reports whether shed requests re-arrive.
func (s ClientRetrySpec) Enabled() bool { return s.MaxAttempts > 0 }

// Validate rejects malformed specs.
func (s ClientRetrySpec) Validate() error {
	if s.MaxAttempts < 0 {
		return fmt.Errorf("overload: ClientRetrySpec.MaxAttempts must be >= 0, got %d", s.MaxAttempts)
	}
	if !(s.Backoff >= 0) || math.IsInf(s.Backoff, 1) {
		return fmt.Errorf("overload: ClientRetrySpec.Backoff must be finite and >= 0, got %g", s.Backoff)
	}
	return nil
}

// WithDefaults fills the base backoff for an enabled spec.
func (s ClientRetrySpec) WithDefaults() ClientRetrySpec {
	if s.Enabled() && s.Backoff == 0 {
		s.Backoff = DefaultClientBackoff
	}
	return s
}
