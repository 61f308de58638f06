package overload

import (
	"math"
	"strings"
	"testing"

	"mugi/internal/arch"
)

func TestClassRoundTrip(t *testing.T) {
	for _, c := range Classes() {
		got, err := ParseClass(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseClass(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if _, err := ParseClass("premium"); err == nil {
		t.Fatalf("ParseClass accepted unknown class")
	}
	if Standard != 0 {
		t.Fatalf("zero-value class must be Standard")
	}
	if !(Interactive.Priority() < Standard.Priority() && Standard.Priority() < BestEffort.Priority()) {
		t.Fatalf("priority order broken: %d %d %d",
			Interactive.Priority(), Standard.Priority(), BestEffort.Priority())
	}
}

// TestAdmissionDecisionTable pins the full decision matrix: every class
// crossed with queue state (room / full-with-victim / full-no-victim)
// and brownout level (nominal / degrading). Changing any cell is a
// semantic change to the admission contract and must be deliberate.
func TestAdmissionDecisionTable(t *testing.T) {
	type key struct {
		c         Class
		full      bool
		lower     bool
		degrading bool
	}
	want := map[key]Decision{
		// Queue has room, no brownout: everyone admits.
		{Interactive, false, false, false}: Admit,
		{Standard, false, false, false}:    Admit,
		{BestEffort, false, false, false}:  Admit,
		// Queue has room, brownout degrading: only best-effort degrades.
		{Interactive, false, false, true}: Admit,
		{Standard, false, false, true}:    Admit,
		{BestEffort, false, false, true}:  Degrade,
		// Full queue with a strictly-lower-priority victim queued:
		// interactive and standard evict. (lower is always false for
		// best-effort — nothing ranks below it.)
		{Interactive, true, true, false}: Evict,
		{Standard, true, true, false}:    Evict,
		{Interactive, true, true, true}:  Evict,
		{Standard, true, true, true}:     Evict,
		// Full queue, no victim: everyone sheds, degraded or not.
		{Interactive, true, false, false}: Shed,
		{Standard, true, false, false}:    Shed,
		{BestEffort, true, false, false}:  Shed,
		{Interactive, true, false, true}:  Shed,
		{Standard, true, false, true}:     Shed,
		{BestEffort, true, false, true}:   Shed,
	}
	for k, d := range want {
		a := NewAdmission(AdmissionSpec{})
		if got := a.Decide(0, k.c, k.full, k.lower, k.degrading); got != d {
			t.Errorf("Decide(%v full=%v lower=%v degrading=%v) = %v, want %v",
				k.c, k.full, k.lower, k.degrading, got, d)
		}
	}
}

func TestAdmissionTokenBucket(t *testing.T) {
	var spec AdmissionSpec
	spec.Buckets[BestEffort] = TokenBucket{Rate: 1, Burst: 2}
	a := NewAdmission(spec)
	// Burst of 2 admits two back-to-back, then sheds on the empty bucket
	// even though the queue has room.
	if d := a.Decide(0, BestEffort, false, false, false); d != Admit {
		t.Fatalf("first best-effort: %v, want admit", d)
	}
	if d := a.Decide(0, BestEffort, false, false, false); d != Admit {
		t.Fatalf("second best-effort: %v, want admit", d)
	}
	if d := a.Decide(0, BestEffort, false, false, false); d != Shed {
		t.Fatalf("third best-effort with empty bucket: %v, want shed", d)
	}
	// Unlimited classes are untouched by the best-effort bucket.
	if d := a.Decide(0, Interactive, false, false, false); d != Admit {
		t.Fatalf("interactive: %v, want admit", d)
	}
	// One second refills one token.
	if d := a.Decide(1, BestEffort, false, false, false); d != Admit {
		t.Fatalf("refilled best-effort: %v, want admit", d)
	}
	// A shed must not consume the refilled state retroactively: full
	// queue without victim sheds and the token survives.
	if d := a.Decide(2, BestEffort, true, false, false); d != Shed {
		t.Fatalf("full-queue best-effort: %v, want shed", d)
	}
	if d := a.Decide(2, BestEffort, false, false, false); d != Admit {
		t.Fatalf("token should have survived the shed: %v, want admit", d)
	}
}

func TestAdmissionRefillClampsBackwardTime(t *testing.T) {
	var spec AdmissionSpec
	spec.Buckets[Standard] = TokenBucket{Rate: 1, Burst: 1}
	a := NewAdmission(spec)
	if d := a.Decide(10, Standard, false, false, false); d != Admit {
		t.Fatalf("first: %v", d)
	}
	// An out-of-order earlier event must not mint tokens or rewind.
	if d := a.Decide(5, Standard, false, false, false); d != Shed {
		t.Fatalf("out-of-order arrival minted a token: %v", d)
	}
}

func TestBrownoutHysteresis(t *testing.T) {
	spec := BrownoutSpec{HighWater: 10, Dwell: 5}.WithDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b := NewBrownout(spec)
	// Pressure below Enter: stays at 0 forever.
	for ti := 0; ti < 100; ti += 10 {
		if lvl := b.Observe(float64(ti), 7); lvl != 0 {
			t.Fatalf("level %d below enter threshold", lvl)
		}
	}
	// Pressure at Enter must hold for Dwell before the first rung.
	if lvl := b.Observe(1000, 8); lvl != 0 {
		t.Fatalf("climbed without dwell: %d", lvl)
	}
	if lvl := b.Observe(1004, 8); lvl != 0 {
		t.Fatalf("climbed before dwell elapsed: %d", lvl)
	}
	if lvl := b.Observe(1005, 8); lvl != 1 {
		t.Fatalf("first rung after dwell: got %d", lvl)
	}
	// Sustained pressure climbs one rung per dwell, capped at the top.
	if lvl := b.Observe(1010, 9); lvl != 2 {
		t.Fatalf("second rung: got %d", lvl)
	}
	if lvl := b.Observe(1015, 9); lvl != 3 {
		t.Fatalf("third rung: got %d", lvl)
	}
	if lvl := b.Observe(1025, 10); lvl != 3 {
		t.Fatalf("climbed past the ladder: %d", lvl)
	}
	// Pressure in the dead band (Exit < p < Enter) holds the level.
	if lvl := b.Observe(1100, 5); lvl != 3 {
		t.Fatalf("dead band moved the level: %d", lvl)
	}
	// Recovery needs pressure at or below Exit for Dwell per rung.
	if lvl := b.Observe(1200, 2); lvl != 3 {
		t.Fatalf("descended without dwell: %d", lvl)
	}
	if lvl := b.Observe(1205, 2); lvl != 2 {
		t.Fatalf("first descent: got %d", lvl)
	}
	// A pressure blip resets the dwell clock mid-descent.
	if lvl := b.Observe(1207, 5); lvl != 2 {
		t.Fatalf("blip changed level: %d", lvl)
	}
	if lvl := b.Observe(1209, 2); lvl != 2 {
		t.Fatalf("descended too soon after blip: %d", lvl)
	}
	if lvl := b.Observe(1214, 2); lvl != 1 {
		t.Fatalf("second descent after blip+dwell: got %d", lvl)
	}
	if lvl := b.Observe(1219, 0); lvl != 0 {
		t.Fatalf("full recovery: got %d", lvl)
	}
	if lvl := b.Observe(1300, 0); lvl != 0 {
		t.Fatalf("descended below 0: %d", lvl)
	}
}

// TestBrownoutAtRest: the ladder is at rest only at level 0 with
// pressure below Enter, and once an observation has found it at rest,
// further observations at that queue length leave the machine as they
// found it, dwell clock included, even when pressure had been pushing
// up before.
func TestBrownoutAtRest(t *testing.T) {
	spec := BrownoutSpec{HighWater: 8, Dwell: 5}.WithDefaults() // Enter at queue 6
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b := NewBrownout(spec)
	for _, tc := range []struct {
		qlen int
		want bool
	}{{0, true}, {5, true}, {6, false}, {9, false}} {
		if got := b.AtRest(tc.qlen); got != tc.want {
			t.Errorf("level 0, queue %d: AtRest %v, want %v", tc.qlen, got, tc.want)
		}
	}
	b.Observe(0, 6) // pressure at Enter starts the dwell clock
	b.Observe(2, 5) // and falling below it stops the clock
	level, dir, since := b.level, b.dir, b.since
	for ti := 3; ti < 50; ti++ {
		b.Observe(float64(ti), 5)
	}
	if b.level != level || b.dir != dir || b.since != since {
		t.Errorf("at-rest observations moved the machine: level %d dir %d since %g, was %d %d %g", b.level, b.dir, b.since, level, dir, since)
	}
	b.Observe(100, 6)
	b.Observe(105, 6)
	if b.Level() != 1 || b.AtRest(0) {
		t.Errorf("level %d: AtRest(0) %v, want level 1 and not at rest", b.Level(), b.AtRest(0))
	}
}

func TestBrownoutSpecValidation(t *testing.T) {
	if err := (BrownoutSpec{Steps: []BrownoutStep{}, HighWater: 4, Enter: 0.75, Exit: 0.25, Dwell: 1}).Validate(); err == nil {
		t.Fatalf("zero-rung ladder accepted")
	}
	if err := (BrownoutSpec{Steps: DefaultBrownoutSteps(), HighWater: 4, Enter: 0.5, Exit: 0.5, Dwell: 1}).Validate(); err == nil {
		t.Fatalf("Exit == Enter accepted")
	}
	spec := BrownoutSpec{HighWater: 4}.WithDefaults()
	if err := spec.Validate(); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
	if got := spec.Step(0); got != (BrownoutStep{}) {
		t.Fatalf("level 0 step not nominal: %+v", got)
	}
	if got := spec.Step(3); got.BestEffortCap != 24 || got.DVFS != arch.DVFSStep("p75", 0.75) {
		t.Fatalf("deepest default rung wrong: %+v", got)
	}
}

func TestBreakerLifecycle(t *testing.T) {
	spec := BreakerSpec{Window: 100, Threshold: 0.25, Cooldown: 50, Probes: 2}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	b := NewBreaker(spec)
	if b.Tick(0) != BreakerClosed || !b.Allow() {
		t.Fatalf("new breaker not closed")
	}
	// 20s of downtime in a 100s window is 0.2 < 0.25: stays closed.
	b.ObserveDown(10, 30)
	if b.Tick(40) != BreakerClosed {
		t.Fatalf("tripped below threshold")
	}
	// A second crash accrues as it elapses: at t=55 the window holds
	// 20 + 5 = 25s, exactly the threshold — trips.
	b.ObserveDown(50, 70)
	if b.Tick(54) != BreakerClosed {
		t.Fatalf("tripped on not-yet-elapsed downtime (clairvoyant breaker)")
	}
	if b.Tick(55) != BreakerOpen || b.Allow() {
		t.Fatalf("did not trip at threshold")
	}
	if b.Trips() != 1 {
		t.Fatalf("trips = %d, want 1", b.Trips())
	}
	// Open until cooldown elapses, then half-open (probes allowed).
	if b.Tick(100) != BreakerOpen {
		t.Fatalf("half-opened before cooldown")
	}
	if b.Tick(105) != BreakerHalfOpen || !b.Allow() {
		t.Fatalf("did not half-open after cooldown")
	}
	// A failure during half-open re-opens and counts as a trip.
	b.ObserveDown(110, 120)
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("half-open failure did not re-open: %v trips %d", b.State(), b.Trips())
	}
	if b.Tick(161) != BreakerHalfOpen {
		t.Fatalf("did not half-open after second cooldown")
	}
	// Two successful probes close it with a clean window.
	b.Probe()
	if b.State() != BreakerHalfOpen {
		t.Fatalf("closed after one probe")
	}
	b.Probe()
	if b.State() != BreakerClosed {
		t.Fatalf("did not close after %d probes", spec.Probes)
	}
	if b.Tick(162) != BreakerClosed {
		t.Fatalf("re-tripped on forgotten spans")
	}
}

func TestBreakerSpecValidation(t *testing.T) {
	for _, th := range []float64{-0.1, 0, 1.5} {
		s := BreakerSpec{Threshold: th}.WithDefaults()
		s.Threshold = th
		if err := s.Validate(); err == nil {
			t.Errorf("threshold %g accepted", th)
		}
	}
	if err := (BreakerSpec{}).WithDefaults().Validate(); err != nil {
		t.Fatalf("defaulted spec invalid: %v", err)
	}
}

func TestClientRetrySpec(t *testing.T) {
	if (ClientRetrySpec{}).Enabled() {
		t.Fatalf("zero spec enabled")
	}
	s := ClientRetrySpec{MaxAttempts: 3}.WithDefaults()
	if !s.Enabled() || s.Backoff != DefaultClientBackoff {
		t.Fatalf("defaults not applied: %+v", s)
	}
	if err := (ClientRetrySpec{MaxAttempts: -1}).Validate(); err == nil {
		t.Fatalf("negative attempts accepted")
	}
}

func TestSLOAndDefaults(t *testing.T) {
	for _, c := range Classes() {
		slo := DefaultSLO(c)
		if slo == (SLO{}) {
			t.Fatalf("class %v has no default SLO", c)
		}
	}
	s := SLO{TTFTP99: 2, LatencyP99: 60}
	if !s.Met(2, 60) || s.Met(2.1, 1) || s.Met(1, 61) {
		t.Fatalf("SLO.Met boundary behavior wrong")
	}
	if !(SLO{}).Met(1e9, 1e9) {
		t.Fatalf("zero SLO must be unconstrained")
	}
}

// TestSpecsRejectNonFiniteKnobs: every float knob of the brownout,
// client-retry, admission and breaker specs must be finite and in its
// domain, with an error naming the field. A NaN brownout threshold or
// dwell used to keep the ladder at level 0, a NaN or infinite client
// backoff to end a run early, and NaN rates and breaker knobs passed.
func TestSpecsRejectNonFiniteKnobs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	brownout := func(mut func(*BrownoutSpec)) error {
		s := BrownoutSpec{HighWater: 8}
		mut(&s)
		return s.WithDefaults().Validate()
	}
	bucket := func(b TokenBucket) error {
		var s AdmissionSpec
		s.Buckets[BestEffort] = b
		return s.Validate()
	}
	breaker := func(mut func(*BreakerSpec)) error {
		var s BreakerSpec
		mut(&s)
		return s.WithDefaults().Validate()
	}
	cases := []struct {
		name, field string
		err         error
	}{
		{"brownout Enter NaN", "Enter", brownout(func(s *BrownoutSpec) { s.Enter = nan })},
		{"brownout Enter +Inf", "Enter", brownout(func(s *BrownoutSpec) { s.Enter = inf })},
		{"brownout Exit NaN", "Exit", brownout(func(s *BrownoutSpec) { s.Exit = nan })},
		{"brownout Dwell NaN", "Dwell", brownout(func(s *BrownoutSpec) { s.Dwell = nan })},
		{"brownout Dwell +Inf", "Dwell", brownout(func(s *BrownoutSpec) { s.Dwell = inf })},
		{"client Backoff NaN", "Backoff", ClientRetrySpec{Backoff: nan, MaxAttempts: 2}.Validate()},
		{"client Backoff +Inf", "Backoff", ClientRetrySpec{Backoff: inf, MaxAttempts: 2}.Validate()},
		{"admission Rate NaN", "Rate", bucket(TokenBucket{Rate: nan})},
		{"admission Rate +Inf", "Rate", bucket(TokenBucket{Rate: inf})},
		{"admission Burst NaN", "Burst", bucket(TokenBucket{Rate: 1, Burst: nan})},
		{"breaker Threshold NaN", "Threshold", breaker(func(s *BreakerSpec) { s.Threshold = nan })},
		{"breaker Window NaN", "Window", breaker(func(s *BreakerSpec) { s.Window = nan })},
		{"breaker Window +Inf", "Window", breaker(func(s *BreakerSpec) { s.Window = inf })},
		{"breaker Cooldown NaN", "Cooldown", breaker(func(s *BreakerSpec) { s.Cooldown = nan })},
		{"breaker Cooldown +Inf", "Cooldown", breaker(func(s *BreakerSpec) { s.Cooldown = inf })},
	}
	for _, c := range cases {
		if c.err == nil || !strings.Contains(c.err.Error(), c.field) {
			t.Errorf("%s: error %v, want one naming %s", c.name, c.err, c.field)
		}
	}
}
