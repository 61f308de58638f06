package overload

import (
	"fmt"
	"math"

	"mugi/internal/arch"
)

// BrownoutStep is one rung of the degradation ladder: what service
// looks like while the scheduler sits at that level. All knobs degrade
// work the scheduler *keeps* — brownout never sheds.
type BrownoutStep struct {
	// BestEffortCap caps MaxNewTokens for best-effort requests admitted
	// at this level (0 = no cap). Interactive and standard output is
	// never truncated.
	BestEffortCap int
	// CtxBucketScale multiplies serve.Config.CtxBucket, coarsening KV
	// quantization so more requests share a step shape (fewer distinct
	// workloads, bigger batches). 0 or 1 leaves quantization alone.
	CtxBucketScale int
	// DVFS is the operating point at this level. The zero value keeps
	// the config's own point; a real point downshifts the node to trade
	// step latency for V² energy while browned out.
	DVFS arch.DVFSPoint
}

// DefaultBrownoutSteps is the three-rung ladder used when a spec leaves
// Steps nil: tighten the best-effort cap and coarsen quantization first
// (cheap, targeted), downshift DVFS only at the deepest rung.
func DefaultBrownoutSteps() []BrownoutStep {
	return []BrownoutStep{
		{BestEffortCap: 96, CtxBucketScale: 1},
		{BestEffortCap: 48, CtxBucketScale: 2},
		{BestEffortCap: 24, CtxBucketScale: 4, DVFS: arch.DVFSStep("p75", 0.75)},
	}
}

// BrownoutSpec configures the ladder and its hysteresis. Pressure is
// queue length over HighWater; the ladder climbs one rung after
// pressure has held at or above Enter for Dwell seconds, and descends
// one rung after it has held at or below Exit for Dwell. The Enter/Exit
// gap plus the dwell time is what prevents level flapping at a noisy
// queue boundary.
type BrownoutSpec struct {
	// Steps is the ladder, mildest first. Nil means
	// DefaultBrownoutSteps(); empty is invalid (a ladder with zero
	// rungs cannot degrade anything).
	Steps []BrownoutStep
	// HighWater normalizes queue length into pressure. 0 lets the
	// scheduler choose (MaxQueue when bounded, else 4*MaxBatch).
	HighWater int
	// Enter is the pressure at or above which the ladder climbs
	// (default 0.75).
	Enter float64
	// Exit is the pressure at or below which the ladder descends
	// (default 0.25). Must be below Enter.
	Exit float64
	// Dwell is how long (seconds) pressure must hold past a threshold
	// before the level moves one rung (default 15).
	Dwell float64
}

// WithDefaults fills unset fields. HighWater is left to the scheduler.
func (s BrownoutSpec) WithDefaults() BrownoutSpec {
	if s.Steps == nil {
		s.Steps = DefaultBrownoutSteps()
	}
	if s.Enter == 0 {
		s.Enter = 0.75
	}
	if s.Exit == 0 {
		s.Exit = 0.25
	}
	if s.Dwell == 0 {
		s.Dwell = 15
	}
	return s
}

// Validate rejects malformed specs (after WithDefaults).
func (s BrownoutSpec) Validate() error {
	if len(s.Steps) == 0 {
		return fmt.Errorf("overload: BrownoutSpec.Steps must have at least one rung")
	}
	for i, st := range s.Steps {
		if st.BestEffortCap < 0 {
			return fmt.Errorf("overload: brownout step %d BestEffortCap must be >= 0, got %d", i, st.BestEffortCap)
		}
		if st.CtxBucketScale < 0 {
			return fmt.Errorf("overload: brownout step %d CtxBucketScale must be >= 0, got %d", i, st.CtxBucketScale)
		}
	}
	if s.HighWater < 0 {
		return fmt.Errorf("overload: BrownoutSpec.HighWater must be >= 0, got %d", s.HighWater)
	}
	// Written !(x > 0) and the like so NaN fails; a NaN threshold or
	// dwell would silently keep the ladder at level 0.
	if !(s.Enter > 0) || math.IsInf(s.Enter, 1) {
		return fmt.Errorf("overload: BrownoutSpec.Enter must be finite and > 0, got %g", s.Enter)
	}
	if !(s.Exit >= 0 && s.Exit < s.Enter) {
		return fmt.Errorf("overload: BrownoutSpec.Exit must be in [0, Enter %g), got %g", s.Enter, s.Exit)
	}
	if !(s.Dwell >= 0) || math.IsInf(s.Dwell, 1) {
		return fmt.Errorf("overload: BrownoutSpec.Dwell must be finite and >= 0, got %g", s.Dwell)
	}
	return nil
}

// Step returns the rung active at a level (level 0 = nominal service,
// the zero step).
func (s BrownoutSpec) Step(level int) BrownoutStep {
	if level <= 0 {
		return BrownoutStep{}
	}
	if level > len(s.Steps) {
		level = len(s.Steps)
	}
	return s.Steps[level-1]
}

// Brownout is the hysteresis state machine walking the ladder. Observe
// is called with monotone simulated time and the current queue length;
// it returns the level after applying the dwell rule.
type Brownout struct {
	spec  BrownoutSpec
	level int
	// dir is the direction pressure has been pushing (-1, 0, +1) and
	// since when; a level moves only after dir has held for Dwell.
	dir   int
	since float64
}

// NewBrownout builds the machine at level 0. The spec must already be
// defaulted and validated, with a positive HighWater resolved.
func NewBrownout(spec BrownoutSpec) *Brownout {
	return &Brownout{spec: spec}
}

// Level returns the current rung (0 = nominal).
func (b *Brownout) Level() int { return b.level }

// Step returns the rung active right now.
func (b *Brownout) Step() BrownoutStep { return b.spec.Step(b.level) }

// pressure is queue length qlen over HighWater.
func (b *Brownout) pressure(qlen int) float64 {
	return float64(qlen) / float64(b.spec.HighWater)
}

// AtRest reports whether the ladder sits at level 0 with queue length
// qlen below the Enter pressure. Observe cannot then move the level or
// start a dwell clock until the queue grows, so a caller that observes
// at every event which can grow the queue may skip the observations
// between them.
func (b *Brownout) AtRest(qlen int) bool {
	return b.level == 0 && !(b.pressure(qlen) >= b.spec.Enter)
}

// Observe feeds one (time, queue length) sample and returns the level
// afterwards. Pressure at or above Enter pushes up, at or below Exit
// pushes down, in between resets the dwell clock; a push that holds for
// Dwell moves the level one rung and restarts the clock, so deep
// brownout is reached gradually and exited gradually (hysteresis both
// in threshold and in time).
func (b *Brownout) Observe(now float64, qlen int) int {
	pressure := b.pressure(qlen)
	dir := 0
	switch {
	case pressure >= b.spec.Enter && b.level < len(b.spec.Steps):
		dir = 1
	case pressure <= b.spec.Exit && b.level > 0:
		dir = -1
	}
	if dir != b.dir {
		b.dir, b.since = dir, now
	}
	if dir != 0 && now-b.since >= b.spec.Dwell {
		b.level += dir
		b.since = now
		// Re-evaluate direction at the new level so a level at the top
		// (or bottom) of the ladder stops pushing.
		if b.level == len(b.spec.Steps) && dir > 0 || b.level == 0 && dir < 0 {
			b.dir = 0
		}
	}
	return b.level
}
