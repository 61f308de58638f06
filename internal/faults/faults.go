// Package faults is the seeded deterministic fault-injection layer: the
// disturbance models (fail-stop crashes, slow-node stragglers, boot
// failures, transient request errors) that internal/serve,
// internal/fleet, and internal/autoscale thread through their schedulers
// to price availability the way the rest of the repo prices performance.
//
// Every draw is a pure function of (Spec.Seed, replica index, attempt
// counter): crash/repair timelines are materialized per replica from a
// private splitmix64 stream, and boot-failure / transient-error outcomes
// are counter-hashed rather than drawn from shared mutable RNG state. No
// draw ever depends on scheduler load, goroutine interleaving, or how
// far another replica's timeline has been materialized — so a faulty run
// is byte-identical at any runner parallelism, including under -race,
// which is the repo's standing determinism contract (docs/ANALYSIS.md).
//
// The models are deliberately classical: exponential time-between-failure
// and time-to-repair (fail-stop, memoryless), a Bernoulli chronic-straggler
// draw per replica (the "slow node" of MapReduce lore, modeled as a
// constant step-latency multiplier), Bernoulli boot failures per boot
// attempt, and Bernoulli transient dispatch errors per (request, attempt).
// What the serving stack does about them — failover re-dispatch, load
// shedding, crash/repair power states — lives with the schedulers; this
// package only decides when the hardware misbehaves.
package faults

import (
	"fmt"
	"math"
)

// Model defaults.
const (
	// DefaultMTTR is the mean time to repair (seconds) used when a Spec
	// sets MTBF without MTTR: five minutes, an automated
	// restart-and-reattach rather than a hardware swap.
	DefaultMTTR = 300.0
	// DefaultStragglerFactor is the step-latency multiplier of a chronic
	// straggler when a Spec sets StragglerProb without a factor: the
	// canonical "half-speed node".
	DefaultStragglerFactor = 2.0
)

// Spec parameterizes every fault model. The zero value injects nothing;
// Enabled reports whether any model is active.
type Spec struct {
	// MTBF is the per-replica mean time between fail-stop crashes in
	// seconds (exponential). 0 disables crashes.
	MTBF float64
	// MTTR is the mean time to repair in seconds (exponential; default
	// DefaultMTTR when MTBF is set).
	MTTR float64
	// StragglerProb is the probability a given replica is a chronic
	// straggler, drawn once per replica.
	StragglerProb float64
	// StragglerFactor multiplies every step's latency on straggler
	// replicas (default DefaultStragglerFactor; must be >= 1).
	StragglerFactor float64
	// BootFailProb is the probability any single boot attempt fails
	// (the autoscaler's cold starts; the attempt is re-drawn per retry).
	BootFailProb float64
	// TransientProb is the probability one dispatch attempt of a request
	// fails transiently and must be retried after a detection delay.
	TransientProb float64
	// Seed drives every draw; equal specs replay identical fault
	// histories.
	Seed int64
}

// WithDefaults materializes the zero-value defaults (MTTR, straggler
// factor) without touching disabled models.
func (s Spec) WithDefaults() Spec {
	if s.MTBF > 0 && s.MTTR == 0 {
		s.MTTR = DefaultMTTR
	}
	if s.StragglerProb > 0 && s.StragglerFactor == 0 {
		s.StragglerFactor = DefaultStragglerFactor
	}
	return s
}

// Validate rejects non-physical fault models. Every knob must be finite:
// a NaN or infinite MTBF or MTTR would leave the crash timeline unable
// to advance past its horizon. The checks are written !(x >= 0) so NaN
// fails them.
func (s Spec) Validate() error {
	if !(s.MTBF >= 0) || math.IsInf(s.MTBF, 1) {
		return fmt.Errorf("faults: MTBF %g must be finite and non-negative", s.MTBF)
	}
	if !(s.MTTR >= 0) || math.IsInf(s.MTTR, 1) {
		return fmt.Errorf("faults: MTTR %g must be finite and non-negative", s.MTTR)
	}
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"StragglerProb", s.StragglerProb},
		{"BootFailProb", s.BootFailProb},
		{"TransientProb", s.TransientProb},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("faults: %s %g must be a probability in [0, 1]", p.name, p.v)
		}
	}
	if s.StragglerFactor != 0 && (!(s.StragglerFactor >= 1) || math.IsInf(s.StragglerFactor, 1)) {
		return fmt.Errorf("faults: StragglerFactor %g must be finite and >= 1", s.StragglerFactor)
	}
	return nil
}

// Enabled reports whether any fault model injects anything.
func (s Spec) Enabled() bool {
	return s.MTBF > 0 || s.StragglerProb > 0 || s.BootFailProb > 0 || s.TransientProb > 0
}

// Stream salts separate the independent draw families so, e.g., enabling
// stragglers never perturbs the crash timeline of the same seed.
const (
	crashStream     = 0x9f4a7c15c2b2ae35
	stragglerStream = 0x165667b19e3779f9
	bootStream      = 0x27d4eb2f165667c5
	transientStream = 0x85ebca6bc2b2ae63
)

// mix is the splitmix64 finalizer, the repo's standard seed mixer.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// u01 maps a mixed hash onto [0, 1) at full float64 resolution.
func u01(h uint64) float64 { return float64(h>>11) / (1 << 53) }

// expDraw inverts the exponential CDF: u in [0,1) -> mean * Exp(1).
func expDraw(u, mean float64) float64 { return -mean * math.Log(1-u) }

// draw hashes (seed, stream, a, b) to a uniform in [0, 1). Counter-based
// hashing instead of shared RNG state is what makes concurrent draws
// order-independent.
func (s Spec) draw(stream uint64, a, b int) float64 {
	h := mix(uint64(s.Seed) ^ stream)
	h = mix(h ^ uint64(int64(a)))
	h = mix(h ^ uint64(int64(b)))
	return u01(h)
}

// BootFails reports whether boot attempt `attempt` of `replica` fails.
// Attempts must be numbered distinctly (0, 1, 2, ...) or the same verdict
// replays forever.
func (s Spec) BootFails(replica, attempt int) bool {
	return s.BootFailProb > 0 && s.draw(bootStream, replica, attempt) < s.BootFailProb
}

// Transient reports whether dispatch attempt `attempt` of request `id`
// fails transiently. Attempt numbering must be distinct per request.
func (s Spec) Transient(id, attempt int) bool {
	return s.TransientProb > 0 && s.draw(transientStream, id, attempt) < s.TransientProb
}

// Interval is one contiguous down span [Start, End) in absolute simulated
// seconds: the replica crashes at Start and finishes repair at End.
type Interval struct {
	Start, End float64
}

// Duration is the span length in seconds.
func (iv Interval) Duration() float64 { return iv.End - iv.Start }

// Contains reports whether t falls inside the down span.
func (iv Interval) Contains(t float64) bool { return t >= iv.Start && t < iv.End }

// Schedule is one replica's deterministic fault timeline: its chronic
// slowdown (drawn once) and its crash/repair intervals (drawn lazily, in
// sequence, from a per-replica stream). A Schedule is NOT safe for
// concurrent use — each replica's scheduler owns its own — but because
// draws are sequential and append-only, re-running a replica against the
// same Schedule (the fleet router's failover fixed point) replays the
// identical timeline regardless of how far it was previously
// materialized.
type Schedule struct {
	spec     Spec
	slowdown float64
	rng      uint64
	down     []Interval
	horizon  float64 // timeline materialized up to here (end of last repair)
}

// New derives the deterministic Schedule of one replica from the spec
// (defaults applied, spec validated).
func New(spec Spec, replica int) (*Schedule, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	spec = spec.WithDefaults()
	s := &Schedule{
		spec:     spec,
		slowdown: 1,
		rng:      mix(uint64(spec.Seed)^crashStream) ^ mix(uint64(int64(replica))),
	}
	if spec.StragglerProb > 0 && spec.draw(stragglerStream, replica, 0) < spec.StragglerProb {
		s.slowdown = spec.StragglerFactor
	}
	return s, nil
}

// next is the replica's private sequential splitmix64 stream.
func (s *Schedule) next() float64 {
	s.rng += 0x9e3779b97f4a7c15
	return u01(mix(s.rng))
}

// ensure materializes crash intervals until the timeline covers t.
func (s *Schedule) ensure(t float64) {
	if s.spec.MTBF <= 0 {
		return
	}
	for s.horizon <= t {
		up := expDraw(s.next(), s.spec.MTBF)
		repair := expDraw(s.next(), s.spec.MTTR)
		// Past a large enough clock one ULP exceeds a short up draw, so
		// the sum would equal the last repair's end; floor it one ULP
		// later so every window starts after the previous one ends.
		start := max(s.horizon+up, math.Nextafter(s.horizon, math.Inf(1)))
		s.down = append(s.down, Interval{Start: start, End: start + repair})
		s.horizon = start + repair
	}
}

// Spec returns the (defaulted) spec the schedule was drawn from.
func (s *Schedule) Spec() Spec { return s.spec }

// Slowdown is the replica's chronic step-latency multiplier (1 for
// healthy replicas, Spec.StragglerFactor for stragglers).
func (s *Schedule) Slowdown() float64 { return s.slowdown }

// Active reports whether this schedule can perturb a serving run at all:
// crashes, a straggler slowdown, or transient dispatch errors.
func (s *Schedule) Active() bool {
	return s != nil && (s.spec.MTBF > 0 || s.slowdown > 1 || s.spec.TransientProb > 0)
}

// DownAfter returns the first down interval that ends strictly after t —
// the interval in progress at t, or the next one to come. ok is false
// only when crashes are disabled.
func (s *Schedule) DownAfter(t float64) (Interval, bool) {
	if s == nil || s.spec.MTBF <= 0 {
		return Interval{}, false
	}
	s.ensure(t)
	// The materialized horizon is the last interval's End and exceeds t,
	// so a qualifying interval exists; binary search for the first.
	lo, hi := 0, len(s.down)
	for lo < hi {
		mid := (lo + hi) / 2
		if s.down[mid].End > t {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return s.down[lo], true
}

// DownAt reports whether the replica is inside a down interval at t.
func (s *Schedule) DownAt(t float64) bool {
	iv, ok := s.DownAfter(t)
	return ok && iv.Contains(t)
}

// UpAt is the complement of DownAt.
func (s *Schedule) UpAt(t float64) bool { return !s.DownAt(t) }

// Nines converts availability in [0, 1] to its count of nines,
// -log10(1-a): 0.999 -> 3. Perfect availability maps to +Inf, so render
// through NinesString.
func Nines(avail float64) float64 {
	if avail >= 1 {
		return math.Inf(1)
	}
	if avail <= 0 {
		return 0
	}
	return -math.Log10(1 - avail)
}

// NinesString renders an availability as "N.NN nines", with perfect
// availability spelled out rather than printed as +Inf.
func NinesString(avail float64) string {
	n := Nines(avail)
	if math.IsInf(n, 1) {
		return "all nines"
	}
	return fmt.Sprintf("%.2f nines", n)
}
