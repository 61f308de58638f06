package fleet

import (
	"errors"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// cellAt fabricates a planned cell for frontier tests.
func cellAt(name string, capacity, dollarsPerHour, watts float64) CellResult {
	return CellResult{
		Design: name, Mesh: "1x1", Replicas: 1, Capacity: capacity,
		TCO: TCO{DollarsPerHour: dollarsPerHour, AvgWatts: watts},
	}
}

// TestFrontierPrunesDominated pins the dominance rule on a synthetic
// grid: strictly worse cells drop, incomparable cells survive, and the
// frontier sorts by ascending cost.
func TestFrontierPrunesDominated(t *testing.T) {
	cells := []CellResult{
		cellAt("cheap-slow", 1, 1, 10),
		cellAt("dominated", 1, 2, 5), // same perf as cheap-slow, pricier
		cellAt("mid", 4, 3, 20),
		cellAt("fast-dear", 8, 9, 40),
		cellAt("never-ran", 0, 0.1, 0.1),                               // zero capacity: excluded
		{Design: "errored", Capacity: 9, Err: errors.New("cell died")}, // errored: excluded
	}
	front := Frontier(cells, ByDollar)
	want := []string{"cheap-slow", "mid", "fast-dear"}
	if len(front) != len(want) {
		t.Fatalf("frontier size %d, want %d (%v)", len(front), len(want), names(front))
	}
	for i, w := range want {
		if front[i].Design != w {
			t.Errorf("frontier[%d] = %s, want %s", i, front[i].Design, w)
		}
	}
	// On the watt axis "dominated" (5 W for capacity 1) beats
	// "cheap-slow" (10 W), flipping the pruning.
	byWatt := Frontier(cells, ByWatt)
	if byWatt[0].Design != "dominated" {
		t.Errorf("perf/W frontier starts at %s, want dominated", byWatt[0].Design)
	}
}

// names lists the designs of a frontier for failure messages.
func names(cells []CellResult) []string {
	out := make([]string, len(cells))
	for i, c := range cells {
		out[i] = c.Design
	}
	return out
}

// TestPlanHonorsSLO: a tight TTFT SLO must not report more capacity than
// the unconstrained search, and on a slow single node it must bind.
func TestPlanHonorsSLO(t *testing.T) {
	base := PlanSpec{
		Base:  serve.Config{Model: model.Llama2_7B},
		Cells: []Cell{{Design: arch.Mugi(256), Mesh: noc.Single, Replicas: 1}},
		Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: testSeed},
		Iters: 2,
	}
	unconstrained := Plan(base)[0]
	if unconstrained.Err != nil {
		t.Fatal(unconstrained.Err)
	}
	tight := base
	tight.SLO = SLO{TTFTP99: unconstrained.At.Fleet.TTFT.P99 / 4}
	bound := Plan(tight)[0]
	if bound.Err != nil {
		t.Fatal(bound.Err)
	}
	if bound.Capacity > unconstrained.Capacity {
		t.Errorf("SLO-bound capacity %v exceeds unconstrained %v", bound.Capacity, unconstrained.Capacity)
	}
	if bound.Capacity == unconstrained.Capacity {
		t.Errorf("quartered TTFT SLO did not bind (capacity %v)", bound.Capacity)
	}
	if bound.Capacity > 0 && !bound.At.Fleet.Holds(0, base.SLO.TTFTP99, base.SLO.LatencyP99) {
		t.Error("reported operating point violates the (empty) base SLO")
	}
}

// TestPlanReplicasBuyCapacity: adding replicas must not lose capacity,
// and the priced operating point must carry the replica multiple in its
// capex.
func TestPlanReplicasBuyCapacity(t *testing.T) {
	spec := PlanSpec{
		Base:   serve.Config{Model: model.Llama2_7B},
		Cells:  Grid([]arch.Design{arch.Mugi(256)}, []noc.Mesh{noc.NewMesh(2, 2)}, []int{1, 2}),
		Policy: JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 12, Seed: testSeed},
		Iters:  2,
	}
	results := Plan(spec)
	one, two := results[0], results[1]
	if one.Err != nil || two.Err != nil {
		t.Fatalf("errs: %v %v", one.Err, two.Err)
	}
	if two.Capacity < one.Capacity {
		t.Errorf("2 replicas sustain %v < 1 replica's %v", two.Capacity, one.Capacity)
	}
	if !close(two.TCO.FleetCapex, 2*one.TCO.FleetCapex) {
		t.Errorf("2-replica capex %v != 2x %v", two.TCO.FleetCapex, one.TCO.FleetCapex)
	}
	if one.PerfPerDollar <= 0 || one.PerfPerWatt <= 0 {
		t.Errorf("efficiency metrics not populated: %v %v", one.PerfPerDollar, one.PerfPerWatt)
	}
}
