package fleet

import (
	"fmt"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/raceflag"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// testSeed fixes every fleet-test trace.
const testSeed = 7

func testReplica() serve.Config {
	return serve.Config{Model: model.Llama2_7B, Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2)}
}

func burstyStream(t *testing.T, requests int) serve.Stream {
	t.Helper()
	src, err := serve.NewStream(serve.TraceConfig{
		Kind: serve.Bursty, Rate: 0.3, Requests: requests, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestSingleReplicaMatchesServe pins the router's degenerate case: a
// one-replica round-robin fleet is exactly serve.RunStream — same
// scheduler, same histograms, every float of the report in Go syntax —
// so the fleet layer adds no cost model of its own below N=2. The second
// row runs the whole overload stack: a bounded queue, admission,
// brownout and client retries over a tenanted flash crowd.
func TestSingleReplicaMatchesServe(t *testing.T) {
	stack := testReplica()
	stack.Mesh = noc.Single
	stack.MaxQueue = 8
	stack.Admission = &overload.AdmissionSpec{}
	stack.Brownout = &overload.BrownoutSpec{Steps: overload.DefaultBrownoutSteps(), HighWater: 6, Dwell: 10}
	stack.ClientRetry = overload.ClientRetrySpec{Backoff: 10, MaxAttempts: 2}
	rows := []struct {
		name string
		cfg  serve.Config
		tc   serve.TraceConfig
	}{
		{"bursty", testReplica(), serve.TraceConfig{Kind: serve.Bursty, Rate: 0.3, Requests: 32, Seed: testSeed}},
		{"overload stack", stack, serve.TraceConfig{
			Kind: serve.Flashcrowd, Rate: 0.5, Requests: 160, Seed: testSeed,
			SurgeFactor: 4, SurgeSpan: 120, SurgePeriod: 600,
			Tenants: tenantedTrace(0).Tenants,
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			stream := func() serve.Stream {
				src, err := serve.NewStream(row.tc)
				if err != nil {
					t.Fatal(err)
				}
				return src
			}
			direct, err := serve.RunStream(row.cfg, stream())
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := Run(Config{Replica: row.cfg, Replicas: 1}, stream())
			if err != nil {
				t.Fatal(err)
			}
			want := fmt.Sprintf("%#v", direct)
			if got := fmt.Sprintf("%#v", fleet.Fleet); got != want {
				t.Errorf("1-replica fleet diverges from serve.RunStream:\n--- fleet ---\n%s\n--- serve ---\n%s", fleet.Fleet, direct)
			}
			if got := fmt.Sprintf("%#v", fleet.Replicas[0]); got != want {
				t.Errorf("the replica's report diverges from serve.RunStream:\n--- replica ---\n%s\n--- serve ---\n%s", fleet.Replicas[0], direct)
			}
		})
	}
}

// TestMergePreservesPopulation asserts the merged fleet populations are
// the union of the per-replica populations: counts add exactly, the max
// is the max of maxes, and the mean is the sample-weighted mean — the
// merge never resamples or averages summaries.
func TestMergePreservesPopulation(t *testing.T) {
	for _, policy := range Policies() {
		rep, err := Run(Config{Replica: testReplica(), Replicas: 3, Policy: policy}, burstyStream(t, 48))
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		type pop struct {
			name  string
			fleet serve.Percentiles
			per   func(serve.Report) serve.Percentiles
		}
		pops := []pop{
			{"TTFT", rep.Fleet.TTFT, func(r serve.Report) serve.Percentiles { return r.TTFT }},
			{"TPOT", rep.Fleet.TPOT, func(r serve.Report) serve.Percentiles { return r.TPOT }},
			{"latency", rep.Fleet.Latency, func(r serve.Report) serve.Percentiles { return r.Latency }},
		}
		for _, p := range pops {
			var n int64
			var sum, max float64
			for _, r := range rep.Replicas {
				q := p.per(r)
				n += q.Count
				sum += q.Mean * float64(q.Count)
				if q.Max > max {
					max = q.Max
				}
			}
			if p.fleet.Count != n {
				t.Errorf("%v %s: fleet count %d != sum of replicas %d", policy, p.name, p.fleet.Count, n)
			}
			if p.fleet.Max != max {
				t.Errorf("%v %s: fleet max %v != max of replicas %v", policy, p.name, p.fleet.Max, max)
			}
			if n > 0 {
				want := sum / float64(n)
				if diff := (p.fleet.Mean - want) / want; diff > 1e-9 || diff < -1e-9 {
					t.Errorf("%v %s: fleet mean %v != weighted mean %v", policy, p.name, p.fleet.Mean, want)
				}
			}
		}
		if got := rep.Fleet.Latency.Count; int(got) != rep.Fleet.Completed {
			t.Errorf("%v: latency population %d != completions %d", policy, got, rep.Fleet.Completed)
		}
	}
}

// TestRoundRobinVsJSQOnBurstyTrace is the router-policy golden: on the
// same bursty trace, round-robin spreads requests blindly while JSQ's
// virtual clock shifts arrivals off the backlogged replica. The golden
// properties pinned here — identical totals, different placement, JSQ
// never behind on the tail — are the observable contract of the
// policies; byte-level goldens live in TestFleetReportGolden.
func TestRoundRobinVsJSQOnBurstyTrace(t *testing.T) {
	run := func(p Policy) Report {
		rep, err := Run(Config{Replica: testReplica(), Replicas: 3, Policy: p}, burstyStream(t, 64))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rr, jsq := run(RoundRobin), run(JSQ)

	if rr.Fleet.Completed != 64 || jsq.Fleet.Completed != 64 {
		t.Fatalf("completions: rr %d jsq %d", rr.Fleet.Completed, jsq.Fleet.Completed)
	}
	rrCounts := [3]int{rr.Routed[0], rr.Routed[1], rr.Routed[2]}
	if rrCounts != [3]int{22, 21, 21} {
		t.Errorf("round-robin placement %v, want [22 21 21]", rrCounts)
	}
	same := true
	for i := range rr.Routed {
		if rr.Routed[i] != jsq.Routed[i] {
			same = false
		}
	}
	if same {
		t.Error("JSQ placed requests identically to round-robin on a bursty trace")
	}
	// JSQ steers bursts off the backlogged replica: its mean queue wait
	// (TTFT) must beat blind spreading on a bursty trace.
	if jsq.Fleet.TTFT.Mean >= rr.Fleet.TTFT.Mean {
		t.Errorf("JSQ mean TTFT %.3f not better than round-robin %.3f",
			jsq.Fleet.TTFT.Mean, rr.Fleet.TTFT.Mean)
	}
}

// TestFleetReportGolden pins the first lines of the rendered fleet
// reports for both policies on the bursty trace, so any change to
// routing, merging, or rendering shows up as a diff.
func TestFleetReportGolden(t *testing.T) {
	goldens := map[Policy][]string{
		RoundRobin: {
			"fleet: 3 replicas, round-robin routing",
			"serve: Llama 2 7B on Mugi (256) mesh 2x2",
			"trace: bursty rate 0.30 req/s seed 7 lengths chat (64 requests)",
		},
		JSQ: {
			"fleet: 3 replicas, jsq routing",
			"serve: Llama 2 7B on Mugi (256) mesh 2x2",
			"trace: bursty rate 0.30 req/s seed 7 lengths chat (64 requests)",
		},
	}
	for policy, want := range goldens {
		rep, err := Run(Config{Replica: testReplica(), Replicas: 3, Policy: policy}, burstyStream(t, 64))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(rep.String(), "\n")
		for i, w := range want {
			if lines[i] != w {
				t.Errorf("%v line %d:\n got %q\nwant %q", policy, i, lines[i], w)
			}
		}
		// Rendering must carry one line per replica.
		var replicaLines int
		for _, l := range lines {
			if strings.HasPrefix(l, "replica ") {
				replicaLines++
			}
		}
		if replicaLines != 3 {
			t.Errorf("%v: %d replica lines, want 3", policy, replicaLines)
		}
	}
}

// TestAffinityKeepsSessionsTogether asserts the affinity router's
// contract: two requests of the same session always land on the same
// replica.
func TestAffinityKeepsSessionsTogether(t *testing.T) {
	cfg := Config{Replica: testReplica(), Replicas: 4, Policy: Affinity, AffinitySessions: 8}.withDefaults()
	perReplica, _, _, _, _, err := route(cfg, burstyStream(t, 96), nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := map[int]int{} // session -> replica
	for replica, rs := range perReplica {
		for _, r := range rs {
			sess := r.ID % cfg.AffinitySessions
			if prev, ok := owner[sess]; ok && prev != replica {
				t.Fatalf("session %d split across replicas %d and %d", sess, prev, replica)
			}
			owner[sess] = replica
		}
	}
	if len(owner) != 8 {
		t.Errorf("saw %d sessions, want 8", len(owner))
	}
}

// TestRunValidation covers the router's failure modes.
func TestRunValidation(t *testing.T) {
	if _, err := Run(Config{Replica: testReplica(), Replicas: -1}, burstyStream(t, 4)); err == nil {
		t.Error("negative replica count accepted")
	}
	if _, err := Run(Config{Replica: testReplica(), Replicas: MaxReplicas + 1}, burstyStream(t, 4)); err == nil {
		t.Error("oversized replica count accepted")
	}
	empty := serve.Trace{}.Stream()
	if _, err := Run(Config{Replica: testReplica()}, empty); err == nil {
		t.Error("empty stream accepted")
	}
}

// TestPlanParallelDeterminism asserts the full planner output — every
// report byte of every cell, both frontiers — is identical at
// parallelism 1 and 8, on a JSQ grid, a brownout cell and an affinity
// cell with idle replicas. Runs under -race in CI, which also exercises
// the nested replica-level Map.
func TestPlanParallelDeterminism(t *testing.T) {
	specs := []struct {
		name string
		spec PlanSpec
	}{
		{"jsq grid", PlanSpec{
			Base: serve.Config{Model: model.Llama2_7B},
			Cells: Grid(
				[]arch.Design{arch.Mugi(256), arch.SystolicArray(16, true)},
				[]noc.Mesh{noc.Single, noc.NewMesh(2, 2)},
				[]int{1, 2},
			),
			Policy: JSQ,
			Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: testSeed},
			Iters:  2,
		}},
		{"brownout", brownoutPlanSpec()},
		{"idle replicas", idleReplicasSpec()},
	}
	for _, row := range specs {
		checkParallelDeterminism(t, row.name, row.spec)
	}
}

// TestOneReplicaPlanParallelDeterminism: so is the plan of the capacity
// experiment's five one-replica cells.
func TestOneReplicaPlanParallelDeterminism(t *testing.T) {
	checkParallelDeterminism(t, "capacity experiment", PlanSpec{
		Base: serve.Config{Model: model.Llama2_7B},
		Cells: append(
			Grid([]arch.Design{arch.Mugi(256)}, []noc.Mesh{noc.Single, noc.NewMesh(2, 2), noc.NewMesh(4, 4)}, []int{1}),
			Grid([]arch.Design{arch.SystolicArray(16, true)}, []noc.Mesh{noc.Single, noc.NewMesh(4, 4)}, []int{1})...,
		),
		Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: testSeed},
		Iters: 5,
	})
}

// checkParallelDeterminism renders spec's plan, every cell's report and
// price and both frontiers, at parallelism 1 and 8 and compares them.
func checkParallelDeterminism(t *testing.T, name string, spec PlanSpec) {
	defer runner.SetParallelism(0)
	render := func() string {
		var b strings.Builder
		results := Plan(spec)
		for _, r := range results {
			if r.Err != nil {
				t.Fatal(r.Err)
			}
			b.WriteString(r.At.String())
			b.WriteString(r.TCO.String())
		}
		for _, axis := range []FrontierAxis{ByDollar, ByWatt} {
			for _, f := range Frontier(results, axis) {
				b.WriteString(f.Design)
				b.WriteString(f.At.Fleet.String())
			}
		}
		return b.String()
	}
	runner.SetParallelism(1)
	serial := render()
	runner.SetParallelism(8)
	if parallel := render(); serial != parallel {
		t.Errorf("%s: fleet plan diverges across parallelism levels", name)
	}
	if len(serial) < 200 {
		t.Errorf("%s: suspiciously short plan rendering (%d bytes)", name, len(serial))
	}
}

// TestAllocScaleIndependence proves the router does not reintroduce
// per-step allocation in the replica schedulers: doubling the trace
// length must not double a warmed fleet run's allocations (the only
// O(requests) allocations are the routed schedule slices themselves,
// which grow by amortized append — a handful of reallocations, not one
// per request, and far fewer than the scheduler's step count).
func TestAllocScaleIndependence(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are unreliable under -race (randomized pool reuse)")
	}
	cfg := Config{Replica: testReplica(), Replicas: 2, Policy: JSQ}
	run := func(requests int) {
		src, err := serve.NewStream(serve.TraceConfig{
			Kind: serve.Bursty, Rate: 0.3, Requests: requests, Seed: testSeed,
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Run(cfg, src); err != nil {
			t.Fatal(err)
		}
	}
	run(128) // warm pools, caches, and memos
	allocs := func(requests int) float64 {
		return testing.AllocsPerRun(3, func() { run(requests) })
	}
	small, large := allocs(128), allocs(256)
	// 128 extra requests mean thousands of extra scheduler steps; a
	// per-step or per-request allocation would add >= 128 allocs here.
	if large-small > 64 {
		t.Errorf("allocations scale with trace length: %0.f at 128 requests, %0.f at 256", small, large)
	}
}
