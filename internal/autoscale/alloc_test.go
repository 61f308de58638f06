package autoscale

import (
	"testing"

	"mugi/internal/raceflag"
	"mugi/internal/serve"
)

// TestSteadyStateTickZeroAlloc: once the pooled controller, workload
// memo and sim cache are warm, a run's allocation count must not grow
// with its tick count — the same trace at a 10× finer tick runs ~10×
// the observe/decide/apply cycles and allocates nothing extra, i.e. the
// steady-state tick is 0 allocs on top of the warmed scheduler step.
func TestSteadyStateTickZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	tc := serve.TraceConfig{Kind: serve.Diurnal, Rate: 0.5, Requests: 600, Seed: 5, Period: 1800}
	run := func(tick float64) Report {
		cfg := baseCfg()
		cfg.Tick = tick
		rep, err := Run(cfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	// Warm everything: sim cache, engine and controller pools — at
	// both tick granularities so pooled slices reach their high-water
	// capacities.
	coarse := run(600)
	fine := run(60)
	if fine.Ticks < coarse.Ticks*5 {
		t.Fatalf("fine run only ticked %d times vs coarse %d — the comparison proves nothing", fine.Ticks, coarse.Ticks)
	}
	coarseAllocs := testing.AllocsPerRun(5, func() { run(600) })
	fineAllocs := testing.AllocsPerRun(5, func() { run(60) })
	if fineAllocs > coarseAllocs+4 {
		t.Errorf("allocations grow with ticks: %d ticks -> %.1f allocs, %d ticks -> %.1f allocs",
			coarse.Ticks, coarseAllocs, fine.Ticks, fineAllocs)
	}
}
