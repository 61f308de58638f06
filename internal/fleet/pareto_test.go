package fleet

import (
	"errors"
	"fmt"
	"math"
	"strings"
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

// oneNode is a one-replica plan of Mugi(256) on a single node over
// short probes: 16 requests, 4 bisections.
func oneNode() PlanSpec {
	return oneReplicaSpec(serve.Config{Model: model.Llama2_7B}, noc.Single,
		serve.TraceConfig{Kind: serve.Poisson, Requests: 16, Seed: 3}, 4)
}

// TestPlanBrackets: a one-replica search spends several probes and lands
// inside the default bracket, and its at-capacity report names its cell,
// completes every probe request and keeps up with its own offered rate.
func TestPlanBrackets(t *testing.T) {
	res := Plan(oneNode())[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Capacity < DefaultMinRate || res.Capacity > DefaultMaxRate {
		t.Errorf("capacity %.4f outside the bracket [%v, %v]", res.Capacity, DefaultMinRate, DefaultMaxRate)
	}
	if res.Probes < 3 {
		t.Errorf("suspiciously few probes: %d", res.Probes)
	}
	if res.Design != "Mugi (256)" || res.Mesh != "1x1" || res.Replicas != 1 {
		t.Errorf("cell identity %q/%q x%d", res.Design, res.Mesh, res.Replicas)
	}
	at := res.At.Fleet
	if at.Completed != 16 {
		t.Errorf("capacity report incomplete: %+v", at)
	}
	if g := at.SustainedRate / at.OfferedRate; g < DefaultGoodput {
		t.Errorf("capacity probe goodput %.3f below threshold", g)
	}
}

// TestPlanScalesWithMesh: one replica on a 4x4 mesh sustains a strictly
// higher rate than on a single node.
func TestPlanScalesWithMesh(t *testing.T) {
	spec := oneNode()
	spec.Cells = Grid([]arch.Design{arch.Mugi(256)}, []noc.Mesh{noc.Single, noc.NewMesh(4, 4)}, []int{1})
	res := Plan(spec)
	single, mesh := res[0], res[1]
	if single.Err != nil || mesh.Err != nil {
		t.Fatalf("errs: %v %v", single.Err, mesh.Err)
	}
	if mesh.Capacity <= single.Capacity {
		t.Errorf("4x4 capacity %.4f not above single-node %.4f", mesh.Capacity, single.Capacity)
	}
}

// TestPlanUnsustainableFloor: a bracket whose floor already overloads
// the replica reports capacity 0 after one probe, with a zero report and
// no price, not an error.
func TestPlanUnsustainableFloor(t *testing.T) {
	spec := oneNode()
	spec.MinRate, spec.MaxRate = 50, 100
	res := Plan(spec)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Capacity != 0 || res.Probes != 1 {
		t.Errorf("overloaded floor: capacity %g in %d probes", res.Capacity, res.Probes)
	}
	if fmt.Sprintf("%#v %#v", res.At, res.TCO) != fmt.Sprintf("%#v %#v", Report{}, TCO{}) {
		t.Errorf("unsustainable cell carries a report or a price: %+v", res)
	}
}

// TestOneReplicaPlanSLOBounds covers the SLO-bound search MinuteServe
// entries are scored by: a bound loose enough never to trip leaves the
// pure goodput search unchanged, a finite tail bound can only lower
// capacity and the capacity probe holds it, and an impossible bound
// reports the replica unsustainable (capacity 0) instead of failing it.
func TestOneReplicaPlanSLOBounds(t *testing.T) {
	plan := func(slo SLO) CellResult {
		spec := oneNode()
		spec.SLO = slo
		res := Plan(spec)[0]
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		return res
	}
	base := plan(SLO{})
	if loose := plan(SLO{TTFTP99: 1e6, LatencyP99: 1e6}); loose.Capacity != base.Capacity || loose.Probes != base.Probes {
		t.Errorf("untripped SLO changed the search: %v in %d probes, unconstrained %v in %d",
			loose.Capacity, loose.Probes, base.Capacity, base.Probes)
	}
	tight := SLO{TTFTP99: base.At.Fleet.TTFT.P99 * 0.5}
	bound := plan(tight)
	if bound.Capacity >= base.Capacity {
		t.Errorf("tail bound did not lower capacity: %v >= %v", bound.Capacity, base.Capacity)
	}
	if bound.Capacity > 0 && bound.At.Fleet.TTFT.P99 > tight.TTFTP99 {
		t.Errorf("capacity probe violates its own bound: TTFT p99 %.4f > %.4f", bound.At.Fleet.TTFT.P99, tight.TTFTP99)
	}
	if impossible := plan(SLO{TTFTP99: 1e-9}); impossible.Capacity != 0 {
		t.Errorf("impossible bound should be unsustainable, got %v", impossible.Capacity)
	}
}

// TestPlanHonorsSLO: a tight TTFT SLO must not report more capacity than
// the unconstrained search, and on a slow single node it must bind, at
// a probe that holds it.
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
	if bound.Capacity > 0 && bound.At.Fleet.TTFT.P99 > tight.SLO.TTFTP99 {
		t.Errorf("capacity probe violates its own bound: TTFT p99 %.4f > %.4f", bound.At.Fleet.TTFT.P99, tight.SLO.TTFTP99)
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

// TestPlanRejectsBadKnobs: every out-of-range float knob of a plan, its
// search bracket, goodput, SLO and price book, fails every cell, of two
// replicas or of four, with an error naming the knob before any probe
// runs, where a NaN used to plan as if the knob were off. So does a
// bracket whose ends the probe trace rejects.
func TestPlanRejectsBadKnobs(t *testing.T) {
	checkRejectsBadKnobs(t, 2, 4)
}

// TestOneReplicaPlanRejectsBadKnobs: the same knobs fail a one-replica
// search the same way.
func TestOneReplicaPlanRejectsBadKnobs(t *testing.T) {
	checkRejectsBadKnobs(t, 1)
}

// checkRejectsBadKnobs plans each bad knob over a grid of Mugi(256) on
// a 2x2 mesh with the given replica counts.
func checkRejectsBadKnobs(t *testing.T, replicas ...int) {
	nan, inf := math.NaN(), math.Inf(1)
	rows := []struct {
		knob string
		mut  func(*PlanSpec)
	}{
		{"Goodput", func(s *PlanSpec) { s.Goodput = nan }},
		{"Goodput", func(s *PlanSpec) { s.Goodput = -0.5 }},
		{"Goodput", func(s *PlanSpec) { s.Goodput = 1.5 }},
		{"Goodput", func(s *PlanSpec) { s.Goodput = 2 }},
		{"Goodput", func(s *PlanSpec) { s.Goodput = inf }},
		{"MinRate", func(s *PlanSpec) { s.MinRate = nan }},
		{"MinRate", func(s *PlanSpec) { s.MinRate = -1 }},
		{"MinRate", func(s *PlanSpec) { s.MinRate = inf }},
		{"MaxRate", func(s *PlanSpec) { s.MaxRate = nan }},
		{"MaxRate", func(s *PlanSpec) { s.MaxRate = inf }},
		{"MaxRate", func(s *PlanSpec) { s.MinRate, s.MaxRate = 4, 2 }},
		// Rates the probe trace rejects: a peak above the trace
		// generator's bound at MaxRate, a rate below its floor at MinRate,
		// and phases too short for MinRate's mean gap.
		{"MaxRate", func(s *PlanSpec) { s.MaxRate = 1e300 }},
		{"MaxRate", func(s *PlanSpec) { s.Trace.Kind, s.Trace.BurstFactor = serve.Bursty, 1e9 }},
		{"MinRate", func(s *PlanSpec) { s.MinRate = 1e-12 }},
		{"SurgeSpan", func(s *PlanSpec) { s.Trace.Kind, s.Trace.SurgeSpan = serve.Flashcrowd, 1e-6 }},
		{"TTFTP99", func(s *PlanSpec) { s.SLO.TTFTP99 = nan }},
		{"TTFTP99", func(s *PlanSpec) { s.SLO.TTFTP99 = -1 }},
		{"TTFTP99", func(s *PlanSpec) { s.SLO.TTFTP99 = inf }},
		{"LatencyP99", func(s *PlanSpec) { s.SLO.LatencyP99 = nan }},
		{"LatencyP99", func(s *PlanSpec) { s.SLO.LatencyP99 = -1 }},
		{"LatencyP99", func(s *PlanSpec) { s.SLO.LatencyP99 = inf }},
	}
	for _, b := range badBooks() {
		book := b.book
		rows = append(rows, struct {
			knob string
			mut  func(*PlanSpec)
		}{b.knob, func(s *PlanSpec) { s.Book = book }})
	}
	for _, row := range rows {
		spec := PlanSpec{
			Base:  serve.Config{Model: model.Llama2_7B},
			Cells: Grid([]arch.Design{arch.Mugi(256)}, []noc.Mesh{noc.NewMesh(2, 2)}, replicas),
			Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 8, Seed: 1},
			SLO:   SLO{TTFTP99: 60, LatencyP99: 300},
			Iters: 2,
		}
		row.mut(&spec)
		for _, res := range Plan(spec) {
			if res.Err == nil || !strings.Contains(res.Err.Error(), row.knob) {
				t.Errorf("%s: %+v planned %d replicas to capacity %g, err %v; want an error naming %s",
					row.knob, spec.Book, res.Replicas, res.Capacity, res.Err, row.knob)
			}
			if res.Probes != 0 {
				t.Errorf("%s: rejected plan ran %d probes", row.knob, res.Probes)
			}
		}
	}
}
