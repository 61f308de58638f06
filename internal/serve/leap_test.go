package serve

import (
	"fmt"
	"math"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/faults"
	"mugi/internal/model"
	"mugi/internal/overload"
	"mugi/internal/raceflag"
	"mugi/internal/sim"
)

// leapEngine returns an engine holding one queued request of prompt 100
// and output 64 under CtxBucket 32: after its prefill, 63 decode steps
// at contexts 101..163, which span the buckets 128, 160 and 192.
func leapEngine(t *testing.T) (*Engine, *Batch) {
	t.Helper()
	cfg := baseConfig()
	cfg.CtxBucket = 32
	e, err := NewEngine(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	e.Enqueue(Request{Prompt: 100, Output: 64})
	return e, e.Batch(0)
}

// stepTimes runs the request one decode step per round (until = t) and
// returns the end time of each round, checking that every round runs
// exactly one decode step.
func stepTimes(t *testing.T) ([]float64, Report) {
	t.Helper()
	e, b := leapEngine(t)
	defer e.Release()
	var ends []float64
	now := 0.0
	for e.QueueLen() > 0 || b.Len() > 0 {
		steps := e.rep.DecodeSteps
		var err error
		if now, err = e.Round(b, now, arch.DVFSPoint{}, 1, true, now); err != nil {
			t.Fatal(err)
		}
		if got := e.rep.DecodeSteps - steps; got != 1 {
			t.Fatalf("round %d with until = t ran %d decode steps, want 1", len(ends), got)
		}
		ends = append(ends, now)
	}
	return ends, e.Report()
}

// TestRoundLeaps pins the leap's stop rules: until = t is one decode
// step per round; until = +Inf leaps to each bucket edge and to the
// request's last token, in 3 rounds instead of 63, with the same bytes;
// and a leap stops at the first step that ends at or after until.
func TestRoundLeaps(t *testing.T) {
	ends, stepped := stepTimes(t)
	if len(ends) != 63 {
		t.Fatalf("one-step rounds: %d, want 63", len(ends))
	}

	e, b := leapEngine(t)
	var (
		now   float64
		err   error
		leaps []int
		prev  int
	)
	for e.QueueLen() > 0 || b.Len() > 0 {
		if now, err = e.Round(b, now, arch.DVFSPoint{}, 1, true, math.Inf(1)); err != nil {
			t.Fatal(err)
		}
		leaps = append(leaps, e.rep.DecodeSteps-prev)
		prev = e.rep.DecodeSteps
	}
	leapt := e.Report()
	e.Release()
	if want := []int{28, 32, 3}; fmt.Sprint(leaps) != fmt.Sprint(want) {
		t.Errorf("leaps ran %v decode steps, want %v (contexts 101-128, 129-160, 161-163)", leaps, want)
	}
	if now != ends[len(ends)-1] || fmt.Sprintf("%#v", leapt) != fmt.Sprintf("%#v", stepped) {
		t.Errorf("leaping changed the run: end %v, report\n%#v\nstepping: end %v, report\n%#v", now, leapt, ends[len(ends)-1], stepped)
	}

	// ends[k] is when decode step k+1 ends; a leap bounded by until must
	// stop at the first of them at or after until.
	for _, tc := range []struct {
		name  string
		until float64
		steps int
	}{
		{"until on a step end", ends[5], 6},
		{"until between step ends", (ends[4] + ends[5]) / 2, 6},
		{"until just after a step end", math.Nextafter(ends[5], math.Inf(1)), 7},
		{"until before the first step ends", 0, 1},
	} {
		e, b := leapEngine(t)
		got, err := e.Round(b, 0, arch.DVFSPoint{}, 1, true, tc.until)
		if err != nil {
			t.Fatal(err)
		}
		if e.rep.DecodeSteps != tc.steps || got != ends[tc.steps-1] {
			t.Errorf("%s: leap ran %d steps to %v, want %d to %v", tc.name, e.rep.DecodeSteps, got, tc.steps, ends[tc.steps-1])
		}
		e.Release()
	}
}

// countingStep prices through sim.Simulate scaled by factor and counts
// its calls per (phase, batch, context).
func countingStep(calls map[[3]int]int, factor float64) StepFunc {
	return func(p sim.Params, w model.Workload) sim.Result {
		phase := 0
		if w.Decode {
			phase = 1
		}
		calls[[3]int{phase, w.Batch, w.CtxLen}]++
		res := sim.Simulate(p, w)
		res.Seconds *= factor
		res.DynamicEnergy *= factor
		return res
	}
}

// TestStepCostsExactForAnyContext: the dense table prices contexts off
// the bucket grid, two of which share a slot, and shapes outside its
// bounds, each once and each exactly as the StepFunc prices it.
func TestStepCostsExactForAnyContext(t *testing.T) {
	calls := map[[3]int]int{}
	cfg := baseConfig() // CtxBucket 32: contexts 33 and 64 share slot 2
	cfg.Simulate = countingStep(calls, 1)
	s := NewStepCosts(cfg)
	shapes := []struct {
		decode     bool
		batch, ctx int
	}{
		{true, 1, 33}, {true, 1, 64}, {false, 1, 33}, {false, 1, 64},
		{true, 4, 7}, {true, 64, 64}, {true, 1, 5000}, {true, 1, 1},
	}
	for range 2 {
		for _, sh := range shapes {
			got := s.Cost(arch.DVFSPoint{}, sh.decode, sh.batch, sh.ctx)
			var w model.Workload
			if sh.decode {
				w = cfg.Model.DecodeOps(sh.batch, sh.ctx)
			} else {
				w = cfg.Model.PrefillOps(sh.batch, sh.ctx)
			}
			res := sim.Simulate(cfg.Params(), w)
			want := StepCost{Seconds: res.Seconds, DynamicEnergy: res.DynamicEnergy, LeakageWatts: res.LeakageWatts, NoCLimited: res.NoCLimited}
			if got != want {
				t.Errorf("%+v: cost %+v, want %+v", sh, got, want)
			}
		}
	}
	if len(calls) != len(shapes) {
		t.Errorf("%d shapes priced, want %d", len(calls), len(shapes))
	}
	for k, n := range calls {
		if n != 1 {
			t.Errorf("shape %v priced %d times, want once", k, n)
		}
	}
}

// TestStepCostsResetReadsNoStaleEntry: after a MaxBatch 32, CtxBucket 1
// run whose StepFunc triples every cost, a table reset for an honest run
// of the same shapes prices each of them afresh, and a pooled engine
// serving the honest run reproduces its pinned bytes.
func TestStepCostsResetReadsNoStaleEntry(t *testing.T) {
	lying, honest := map[[3]int]int{}, map[[3]int]int{}
	cfg := baseConfig()
	cfg.CtxBucket = 1
	cfg.Simulate = countingStep(lying, 3)
	s := NewStepCosts(cfg)
	for batch := 1; batch <= 32; batch++ {
		for ctx := 1; ctx <= 4096; ctx += 255 {
			s.Cost(arch.DVFSPoint{}, true, batch, ctx)
		}
	}
	cfg.Simulate = countingStep(honest, 1)
	s.reset(cfg.withDefaults())
	for batch := 1; batch <= 32; batch++ {
		for ctx := 1; ctx <= 4096; ctx += 255 {
			if got := s.Cost(arch.DVFSPoint{}, true, batch, ctx); got.Seconds <= 0 {
				t.Fatalf("batch %d ctx %d: cost %+v", batch, ctx, got)
			}
		}
	}
	if len(honest) != len(lying) {
		t.Errorf("reset table priced %d of the %d shapes the last run priced: stale entries read", len(honest), len(lying))
	}

	var row pinnedRow
	for _, r := range pinnedRows() {
		if r.name == "ctx bucket 1" {
			row = r
		}
	}
	liar := row.cfg(t)
	liar.Simulate = countingStep(map[[3]int]int{}, 3)
	var st RunStats // the honest run refills the lying run's buffer
	for _, c := range []Config{liar, row.cfg(t)} {
		src, err := NewStream(row.tc)
		if err != nil {
			t.Fatal(err)
		}
		if err := RunStreamStats(c, src, nil, &st); err != nil {
			t.Fatal(err)
		}
		if c.Simulate == nil {
			if got := goDigest(st); got != row.sum {
				t.Errorf("honest run after a lying one: digest %s, pinned %s", got, row.sum)
			}
		}
	}
}

// brownoutSetups arm, beside the brownout ladder, what else moves the
// queue it watches: admission with a bounded queue, tenant classes and
// retrying clients, or crashes, whose orphans go back to the caller, and
// transient dispatch errors.
var brownoutSetups = []struct {
	name string
	mut  func(t *testing.T, c *Config, tc *TraceConfig, seed int64)
}{
	{"ladder", func(*testing.T, *Config, *TraceConfig, int64) {}},
	{"overload", func(_ *testing.T, c *Config, tc *TraceConfig, _ int64) {
		c.MaxQueue = 12
		c.Admission = &overload.AdmissionSpec{}
		c.ClientRetry = overload.ClientRetrySpec{Backoff: 5, MaxAttempts: 2}
		tc.Tenants = tenantMix()
	}},
	{"faults", func(t *testing.T, c *Config, _ *TraceConfig, seed int64) {
		c.Faults = faultySchedule(t, faults.Spec{MTBF: 120, MTTR: 20, TransientProb: 0.1, Seed: seed})
		c.Retry = RetryPolicy{Delay: 1}
	}},
}

// TestBrownoutLeapsMatchOneStepRounds is the differential gate on
// leaping rounds under brownout. Every config of a grid over trace
// kinds, rates, seeds, dwell times, HighWater and brownoutSetups runs
// with leaping rounds and with one-step rounds (Config.oneStep), and
// the two RunStats must be equal in Go syntax: every float bit for bit,
// every histogram bucket. A four-request batch keeps queues long enough
// for the ladder to reach its top rung, which the grid must do. Under
// the race detector each config runs one seed.
func TestBrownoutLeapsMatchOneStepRounds(t *testing.T) {
	seeds := []int64{1, 2}
	if raceflag.Enabled {
		seeds = seeds[:1]
	}
	var leapt, stepped RunStats
	levels := map[int]int{}
	for _, kind := range []TraceKind{Poisson, Bursty, Flashcrowd} {
		for _, rate := range []float64{0.1, 0.3, 1, 3} {
			for _, seed := range seeds {
				for _, dwell := range []float64{0.5, 2, 10} {
					for _, hw := range []int{2, 8} {
						for _, setup := range brownoutSetups {
							cfg := fastConfig()
							cfg.MaxBatch = 4
							cfg.Brownout = &overload.BrownoutSpec{HighWater: hw, Dwell: dwell}
							tc := TraceConfig{Kind: kind, Rate: rate, Requests: 120, Seed: seed}
							setup.mut(t, &cfg, &tc, seed)
							name := fmt.Sprintf("%v %g req/s seed %d dwell %g high water %d %s", kind, rate, seed, dwell, hw, setup.name)
							for _, r := range []struct {
								oneStep bool
								out     *RunStats
							}{{false, &leapt}, {true, &stepped}} {
								src, err := NewStream(tc)
								if err != nil {
									t.Fatal(err)
								}
								c := cfg
								c.oneStep = r.oneStep
								if err := RunStreamStats(c, src, nil, r.out); err != nil {
									t.Fatalf("%s: %v", name, err)
								}
							}
							if a, b := fmt.Sprintf("%#v", leapt), fmt.Sprintf("%#v", stepped); a != b {
								t.Errorf("%s: leaping rounds differ from one-step rounds\n--- leaping ---\n%s--- one-step ---\n%s", name, leapt.Report, stepped.Report)
							}
							levels[stepped.Report.BrownoutMaxLevel]++
						}
					}
				}
			}
		}
	}
	t.Logf("configs by deepest rung reached: %v", levels)
	if top := len(overload.DefaultBrownoutSteps()); levels[top] == 0 {
		t.Errorf("no config reached the ladder's top rung %d: %v", top, levels)
	}
}
