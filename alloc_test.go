package mugi

import (
	"runtime"
	"testing"

	"mugi/internal/raceflag"
	"mugi/internal/runner"
)

// TestAllocBudgets gates the allocation budgets of the end-to-end
// kernels: a serving, fleet, autoscaling or benchmark path may allocate
// per run and per probe, but never again per request or per scheduler
// step. Each row checks its kernel's result, runs it
// once to warm pools, scratch and lazy tables, and then requires
// testing.AllocsPerRun(1, op) to stay within the budget, on a serial
// runner pool. The budgets sit well above today's counts (go test -v
// logs them) and well below one allocation per request, so they catch a
// per-request or per-step regression, not noise.
//
// Rows that copy large per-replica state also bound the bytes one warmed
// op allocates (runtime.MemStats.TotalAlloc around the op), about 1.5x
// today's figure: a count cannot see one oversized allocation, such as a
// 74 KB serve.RunStats buffer made per replica per probe.
//
// The zero-allocation kernels are gated beside their packages:
// TestMultiplyIntoZeroAlloc (VLP GEMM), TestStepZeroAlloc (decode step)
// and TestLossZeroAlloc (accuracy proxy).
func TestAllocBudgets(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("the race detector randomizes sync.Pool reuse")
	}
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)

	serveCfg, serveTrace := poissonServe(t, SingleNode, 0.05)
	millionCfg, millionTrace := millionRequests()
	plan := fleetPlanSpec()

	// A week of diurnal arrivals at 0.02 req/s: about 12k requests.
	week := TraceConfig{
		Kind: TraceDiurnal, Rate: 0.02, Requests: int(0.02 * 7 * 86400),
		Seed: 42, Period: 86400,
	}
	// Always-on JSQ fleet, then the online controller (power states, boot
	// lag, DVFS) over the same week.
	autoCfg := AutoscaleConfig{
		Replica:     ServeConfig{Model: Llama2_7B, Design: NewMugi(256), Mesh: NewMesh(4, 4)},
		MaxReplicas: 4,
	}
	// Three JSQ replicas under seeded faults: about 200 crashes, each
	// orphaning in-flight work the router fails over.
	faultyCfg := FleetConfig{
		Replica:       ServeConfig{Model: Llama2_7B, Design: NewMugi(256), Mesh: NewMesh(2, 2)},
		Replicas:      3,
		Policy:        FleetJSQ,
		Faults:        FaultSpec{MTBF: 7200, MTTR: 600, Seed: 7},
		MaxRedispatch: 2,
	}
	// A tenanted two-replica JSQ fleet through the full overload stack
	// (per-class admission, strict-priority dispatch, brownout ladder,
	// retrying clients) against a week of 4x flash crowds.
	crowdCfg := FleetConfig{
		Replica: ServeConfig{
			Model: Llama2_7B, Design: NewMugi(256), Mesh: NewMesh(2, 2),
			MaxQueue: 12, MaxBatch: 8,
			Admission:   &AdmissionSpec{},
			Brownout:    &BrownoutSpec{Steps: DefaultBrownoutSteps(), HighWater: 8, Dwell: 10},
			ClientRetry: ClientRetrySpec{Backoff: 15, MaxAttempts: 2},
		},
		Replicas: 2,
		Policy:   FleetJSQ,
	}
	crowdTrace := TraceConfig{
		Kind: TraceFlashcrowd, Rate: 0.02, Requests: int(0.02 * 7 * 86400),
		Seed: 42, SurgeFactor: 4, SurgeSpan: 600, SurgePeriod: 7200,
		Tenants: []TenantSpec{
			{Class: TenantInteractive, Share: 0.3},
			{Class: TenantStandard, Share: 0.4},
			{Class: TenantBestEffort, Share: 0.3},
		},
	}
	msEntry, err := ParseMinuteServeEntry("mugi:4x4")
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []struct {
		name   string
		budget float64
		kb     float64 // bytes budget in KB per op; 0 leaves the row to its count
		op     func(tb testing.TB)
	}{
		{
			// Every run prices its distinct quantized step shapes
			// afresh, one allocation-free simulator pass each, and
			// allocates nothing per request: 10x under the 12,643
			// allocations of the original scheduler.
			name: "serve_poisson_cold", budget: 1_264,
			op: func(tb testing.TB) {
				if _, err := Serve(serveCfg, serveTrace); err != nil {
					tb.Fatal(err)
				}
			},
		},
		{
			// Warm: the pooled engine and its step-cost table leave
			// only the stream wrapper.
			name: "serve_poisson_warm", budget: 64,
			op: func(tb testing.TB) {
				if _, err := Serve(serveCfg, serveTrace); err != nil {
					tb.Fatal(err)
				}
			},
		},
		{
			// 5x under one allocation per request.
			name: "serve_1m_requests", budget: 200_000,
			op: func(tb testing.TB) { serveStream(tb, millionCfg, millionTrace) },
		},
		{
			// The controller allocates per run (prescan counts, windows,
			// reports), never per tick or per request.
			name: "autoscale_week", budget: 8_000, kb: 24_000,
			op: func(tb testing.TB) {
				cmp, err := CompareAutoscale(autoCfg, week)
				if err != nil {
					tb.Fatal(err)
				}
				if cmp.Dynamic.Completed != week.Requests {
					tb.Fatalf("dynamic side completed %d of %d requests", cmp.Dynamic.Completed, week.Requests)
				}
			},
		},
		{
			// The router allocates per replica re-run, never per
			// request or per scheduler step.
			name: "fleet_faulty_week", budget: 8_000, kb: 4_200,
			op: func(tb testing.TB) {
				f := runFleetWeek(tb, faultyCfg, week)
				if f.Completed+f.Shed != f.Requests {
					tb.Fatalf("leaked requests: %d+%d != %d", f.Completed, f.Shed, f.Requests)
				}
				if f.Crashes == 0 {
					tb.Fatal("no crashes injected")
				}
			},
		},
		{
			// Admission, brownout and retry state are per replica and
			// per run, never per request.
			name: "flashcrowd_week", budget: 10_000, kb: 4_900,
			op: func(tb testing.TB) {
				f := runFleetWeek(tb, crowdCfg, crowdTrace)
				if f.Completed+f.Shed+f.Orphaned != f.Requests {
					tb.Fatalf("leaked requests: %d+%d+%d != %d", f.Completed, f.Shed, f.Orphaned, f.Requests)
				}
				if !f.OverloadOn || !f.TenantsOn {
					tb.Fatal("ran without the overload stack")
				}
			},
		},
		{
			// A capacity search, the scored minute, signing and
			// verification: per probe, never per request or scheduler
			// step.
			name: "minuteserve_entry", budget: 5_000, kb: 750,
			op: func(tb testing.TB) {
				rep, err := MinuteServe(msEntry)
				if err != nil {
					tb.Fatal(err)
				}
				if !rep.Sustainable {
					tb.Fatal("scored unsustainable")
				}
				if err := VerifyReport(rep.Encode()); err != nil {
					tb.Fatal(err)
				}
			},
		},
		{
			// Per probe (routed schedules, reports, frontier copies),
			// never per scheduler step: thousands of steps per probe.
			name: "fleet_plan", budget: 15_000, kb: 3_200,
			op: func(tb testing.TB) {
				planFleet(tb, plan)
			},
		},
	} {
		t.Run(k.name, func(t *testing.T) {
			op := func() { k.op(t) }
			op()
			allocs := testing.AllocsPerRun(1, op)
			t.Logf("%.0f allocs/op, budget %.0f", allocs, k.budget)
			if allocs > k.budget {
				t.Errorf("%.0f allocs/op exceed the budget of %.0f", allocs, k.budget)
			}
			if k.kb == 0 {
				return
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			op()
			runtime.ReadMemStats(&after)
			kb := float64(after.TotalAlloc-before.TotalAlloc) / 1024
			t.Logf("%.0f KB/op, budget %.0f", kb, k.kb)
			if kb > k.kb {
				t.Errorf("%.0f KB/op exceed the budget of %.0f", kb, k.kb)
			}
		})
	}
}

// runFleetWeek runs one fleet over a lazily drawn trace and returns its
// merged fleet-wide report.
func runFleetWeek(tb testing.TB, cfg FleetConfig, tc TraceConfig) ServeReport {
	src, err := NewTraceStream(tc)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := RunFleet(cfg, src)
	if err != nil {
		tb.Fatal(err)
	}
	return rep.Fleet
}
