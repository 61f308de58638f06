package serve

import (
	"maps"
	"math"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/raceflag"
	"mugi/internal/sim"
)

// TestStepCostMemo pins the per-run step-cost table: a run prices each
// (operating point, prefill or decode, batch, context) through its
// StepFunc exactly once, a later run on the pooled engine prices afresh,
// and a warmed Round allocates nothing, on the engine's own table and on
// a caller's.
func TestStepCostMemo(t *testing.T) {
	type shape struct {
		design     string
		point      arch.DVFSPoint
		decode     bool
		batch, ctx int
	}
	calls := map[shape]int{}
	count := func(p sim.Params, w model.Workload) sim.Result {
		calls[shape{p.Design.Name, p.DVFS, w.Decode, w.Batch, w.CtxLen}]++
		return sim.Simulate(p, w)
	}
	// A flash crowd deep enough to walk the brownout ladder to its p75
	// DVFS rung, so the run prices steps at two operating points.
	tc := TraceConfig{Kind: Flashcrowd, Rate: 2, Requests: 240, Seed: 3}
	cfgA := baseConfig()
	cfgA.Mesh = noc.NewMesh(4, 4)
	cfgA.Brownout = &overload.BrownoutSpec{}
	cfgA.Simulate = count
	cfgB := cfgA
	cfgB.Design = arch.Carat(256)
	run := func(cfg Config) (Report, map[shape]int) {
		t.Helper()
		clear(calls)
		src, err := NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := RunStream(cfg, src)
		if err != nil {
			t.Fatal(err)
		}
		return rep, maps.Clone(calls)
	}

	repA, callsA := run(cfgA)
	if repA.BrownoutMaxLevel != 3 {
		t.Fatalf("brownout reached level %d, want the DVFS rung 3", repA.BrownoutMaxLevel)
	}
	points := map[arch.DVFSPoint]bool{}
	for s, n := range callsA {
		if n != 1 {
			t.Errorf("%+v priced %d times in one run, want once", s, n)
		}
		points[s.point] = true
	}
	if len(points) != 2 {
		t.Errorf("run priced steps at %d operating points, want nominal and p75", len(points))
	}
	if steps := repA.PrefillSteps + repA.DecodeSteps; len(callsA) >= steps {
		t.Errorf("%d StepFunc calls for %d steps: the table reused nothing", len(callsA), steps)
	}

	// B between two runs of A on the pooled engine: B prices only at
	// its own design, and the second A run prices every shape again and
	// reports the same bytes, so no entry survives its run.
	_, callsB := run(cfgB)
	for s := range callsB {
		if s.design != cfgB.Design.Name {
			t.Errorf("run of %s priced a step of %s", cfgB.Design.Name, s.design)
		}
	}
	repA2, callsA2 := run(cfgA)
	if !maps.Equal(callsA, callsA2) {
		t.Errorf("repeat run priced %d shapes, first run %d: table entries crossed runs", len(callsA2), len(callsA))
	}
	if repA2.String() != repA.String() {
		t.Errorf("repeat run reports different bytes:\n%s\nvs\n%s", repA2, repA)
	}

	if raceflag.Enabled {
		return // allocation counts are unreliable under -race
	}
	e, err := NewEngine(cfgA, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Release()
	b := e.Batch(0)
	round := func() {
		for i := range 8 {
			e.Enqueue(Request{ID: i, Prompt: 100 + 40*i, Output: 64})
		}
		now := 0.0
		for e.QueueLen() > 0 || b.Len() > 0 {
			if now, err = e.Round(b, now, arch.DVFSPoint{}, 1, true, math.Inf(1)); err != nil {
				t.Fatal(err)
			}
		}
	}
	round() // price every shape the rounds use and grow the arena
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Errorf("warmed rounds allocate %.1f times, want 0", n)
	}
	if err := e.useCosts(NewStepCosts(cfgA)); err != nil {
		t.Fatal(err)
	}
	round()
	if n := testing.AllocsPerRun(10, round); n != 0 {
		t.Errorf("warmed rounds on a caller's table allocate %.1f times, want 0", n)
	}
}

// TestStepCostsRejectOtherConfigs: a run handed a table built for
// another configuration fails before it prices anything, and a table
// built from a configuration's zero-value defaults serves the same
// configuration spelled out.
func TestStepCostsRejectOtherConfigs(t *testing.T) {
	calls := map[[3]int]int{}
	run := fastConfig()
	run.Simulate = countingStep(calls, 1)
	others := []struct {
		name string
		mut  func(*Config)
	}{
		{"Design", func(c *Config) { c.Design = arch.Carat(256) }},
		{"Mesh", func(c *Config) { c.Mesh = noc.NewMesh(2, 2) }},
		{"Model", func(c *Config) { c.Model = model.Llama2_13B }},
		{"Bandwidth", func(c *Config) { c.Bandwidth = 1e11 }},
		{"DVFS", func(c *Config) { c.DVFS = arch.DVFSStep("p75", 0.75) }},
		{"CtxBucket", func(c *Config) { c.CtxBucket = 16 }},
		{"MaxBatch", func(c *Config) { c.MaxBatch = 8 }},
	}
	tc := TraceConfig{Kind: Poisson, Rate: 0.5, Requests: 8, Seed: 1}
	for _, o := range others {
		built := run
		o.mut(&built)
		src, err := NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		var st RunStats
		if err := RunStreamStats(run, src, NewStepCosts(built), &st); err == nil {
			t.Errorf("%s: a table built for another %s priced the run", o.name, o.name)
		}
		if len(calls) != 0 {
			t.Errorf("%s: the rejected run priced %d shapes", o.name, len(calls))
		}
	}
	spelled := run
	spelled.MaxBatch, spelled.CtxBucket, spelled.KVBudgetBytes = DefaultMaxBatch, DefaultCtxBucket, DefaultKVBudgetBytes
	src, err := NewStream(tc)
	if err != nil {
		t.Fatal(err)
	}
	var st RunStats
	if err := RunStreamStats(spelled, src, NewStepCosts(run), &st); err != nil {
		t.Errorf("a table built from the defaults rejects them spelled out: %v", err)
	}
}
