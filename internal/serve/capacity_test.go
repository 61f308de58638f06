package serve

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/sim"
)

// capSpec keeps search tests fast: short probes, few bisections.
func capSpec() CapacitySpec {
	return CapacitySpec{
		Trace: TraceConfig{Kind: Poisson, Requests: 16, Seed: 3},
		Iters: 4,
	}
}

func TestFindCapacityBrackets(t *testing.T) {
	res, err := FindCapacity(baseConfig(), capSpec())
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity <= 0 {
		t.Fatalf("single node found no sustainable rate: %+v", res)
	}
	if res.Capacity < DefaultMinRate || res.Capacity > DefaultMaxRate {
		t.Errorf("capacity %.4f outside bracket", res.Capacity)
	}
	if res.Probes < 3 {
		t.Errorf("suspiciously few probes: %d", res.Probes)
	}
	if res.AtCapacity.Completed != 16 {
		t.Errorf("capacity report incomplete: %+v", res.AtCapacity)
	}
	if res.Design != "Mugi (256)" || res.Mesh != "1x1" {
		t.Errorf("cell identity %q/%q", res.Design, res.Mesh)
	}
	// The found capacity actually sustains its own probe.
	if g := res.AtCapacity.SustainedRate / res.AtCapacity.OfferedRate; g < DefaultGoodput {
		t.Errorf("capacity probe goodput %.3f below threshold", g)
	}
}

// TestCapacityScalesWithMesh: a 4x4 mesh must sustain a strictly higher
// rate than a single node — the capacity-search spelling of
// TestMeshSpeedsUpServing.
func TestCapacityScalesWithMesh(t *testing.T) {
	single, err := FindCapacity(baseConfig(), capSpec())
	if err != nil {
		t.Fatal(err)
	}
	meshCfg := baseConfig()
	meshCfg.Mesh = noc.NewMesh(4, 4)
	mesh, err := FindCapacity(meshCfg, capSpec())
	if err != nil {
		t.Fatal(err)
	}
	if mesh.Capacity <= single.Capacity {
		t.Errorf("4x4 capacity %.4f not above single-node %.4f", mesh.Capacity, single.Capacity)
	}
}

// TestFindCapacityUnsustainableFloor: a bracket whose floor already
// overloads the cell reports capacity 0 with a zero report, not an error.
func TestFindCapacityUnsustainableFloor(t *testing.T) {
	spec := capSpec()
	spec.MinRate = 50
	spec.MaxRate = 100
	res, err := FindCapacity(baseConfig(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity != 0 || res.Probes != 1 {
		t.Errorf("overloaded floor: %+v", res)
	}
}

// TestFindCapacityValidates: every float knob of a capacity search that
// is not finite or is out of its range fails the search with an error
// naming the knob, before any probe runs. A NaN used to slip past the
// range checks: MaxRate NaN returned MinRate as the capacity, and a NaN
// Goodput or bound searched as if the knob were off.
func TestFindCapacityValidates(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	rows := []struct {
		knob string
		mut  func(*CapacitySpec)
	}{
		{"Goodput", func(s *CapacitySpec) { s.Goodput = nan }},
		{"Goodput", func(s *CapacitySpec) { s.Goodput = -0.5 }},
		{"Goodput", func(s *CapacitySpec) { s.Goodput = 1.5 }},
		{"Goodput", func(s *CapacitySpec) { s.Goodput = inf }},
		{"MinRate", func(s *CapacitySpec) { s.MinRate = nan }},
		{"MinRate", func(s *CapacitySpec) { s.MinRate = -1 }},
		{"MinRate", func(s *CapacitySpec) { s.MinRate = inf }},
		{"MaxRate", func(s *CapacitySpec) { s.MaxRate = nan }},
		{"MaxRate", func(s *CapacitySpec) { s.MaxRate = inf }},
		{"MaxRate", func(s *CapacitySpec) { s.MinRate, s.MaxRate = 4, 2 }},
		{"TTFTP99", func(s *CapacitySpec) { s.TTFTP99 = nan }},
		{"TTFTP99", func(s *CapacitySpec) { s.TTFTP99 = -1 }},
		{"TTFTP99", func(s *CapacitySpec) { s.TTFTP99 = inf }},
		{"LatencyP99", func(s *CapacitySpec) { s.LatencyP99 = nan }},
		{"LatencyP99", func(s *CapacitySpec) { s.LatencyP99 = -1 }},
		{"LatencyP99", func(s *CapacitySpec) { s.LatencyP99 = inf }},
	}
	for _, row := range rows {
		spec := capSpec()
		row.mut(&spec)
		res, err := FindCapacity(baseConfig(), spec)
		if err == nil || !strings.Contains(err.Error(), row.knob) {
			t.Errorf("%s: %+v searched to capacity %g, err %v; want an error naming %s",
				row.knob, spec, res.Capacity, err, row.knob)
		}
		if res.Probes != 0 {
			t.Errorf("%s: rejected search ran %d probes", row.knob, res.Probes)
		}
	}
	for _, bracket := range [][2]float64{{nan, 1}, {1, nan}, {1, inf}, {inf, inf}} {
		if _, _, _, err := MaxPassingRate(bracket[0], bracket[1], 1, func(float64) (int, bool, error) { return 0, true, nil }); err == nil {
			t.Errorf("MaxPassingRate accepted the bracket %v", bracket)
		}
	}
}

// TestFindCapacitySLOBounds covers the SLO-extended search MinuteServe
// entries are scored by: a bound loose enough never to trip leaves the
// pure-goodput result identical, a finite tail bound can only lower
// capacity and the capacity probe holds it, and an impossible bound
// reports unsustainable (capacity 0) instead of erroring.
func TestFindCapacitySLOBounds(t *testing.T) {
	base, err := FindCapacity(baseConfig(), capSpec())
	if err != nil {
		t.Fatal(err)
	}
	loose := capSpec()
	loose.TTFTP99, loose.LatencyP99 = 1e6, 1e6
	if res, err := FindCapacity(baseConfig(), loose); err != nil {
		t.Fatal(err)
	} else if res.Capacity != base.Capacity || res.Probes != base.Probes {
		t.Errorf("untripped SLO changed the search: %.6f/%d vs %.6f/%d",
			res.Capacity, res.Probes, base.Capacity, base.Probes)
	}
	tight := capSpec()
	tight.TTFTP99 = base.AtCapacity.TTFT.P99 * 0.5
	bounded, err := FindCapacity(baseConfig(), tight)
	if err != nil {
		t.Fatal(err)
	}
	if bounded.Capacity >= base.Capacity {
		t.Errorf("tail bound did not lower capacity: %.6f >= %.6f",
			bounded.Capacity, base.Capacity)
	}
	if bounded.Capacity > 0 && bounded.AtCapacity.TTFT.P99 > tight.TTFTP99 {
		t.Errorf("capacity probe violates its own bound: TTFT p99 %.4f > %.4f",
			bounded.AtCapacity.TTFT.P99, tight.TTFTP99)
	}
	impossible := capSpec()
	impossible.TTFTP99 = 1e-9
	res, err := FindCapacity(baseConfig(), impossible)
	if err != nil {
		t.Fatal(err)
	}
	if res.Capacity != 0 {
		t.Errorf("impossible bound should be unsustainable, got %.6f", res.Capacity)
	}
}

// TestSearchCapacityDeterministicAtAnyParallelism is the engine's
// acceptance guarantee: the sharded grid search renders byte-identical
// results whether cells run serially or across eight workers.
func TestSearchCapacityDeterministicAtAnyParallelism(t *testing.T) {
	cells := []CapacityCell{
		{Design: arch.Mugi(256), Mesh: noc.Single},
		{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2)},
		{Design: arch.SystolicArray(16, true), Mesh: noc.Single},
	}
	base := Config{Model: baseConfig().Model}
	defer runner.SetParallelism(0)

	render := func(par int) []string {
		runner.SetParallelism(par)
		runner.ResetCache()
		results := SearchCapacity(base, cells, capSpec())
		out := make([]string, len(results))
		for i, r := range results {
			if r.Err != nil {
				t.Fatalf("cell %d: %v", i, r.Err)
			}
			// Capacity, probe count, and the full at-capacity report pin
			// both the search path and the probe contents.
			out[i] = fmt.Sprintf("%s/%s capacity %.6f probes %d\n%s",
				r.Design, r.Mesh, r.Capacity, r.Probes, r.AtCapacity.String())
		}
		return out
	}
	serial := render(1)
	parallel := render(8)
	runner.ResetCache()
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("cell %d diverges across parallelism:\n--- serial ---\n%s\n--- parallel ---\n%s",
				i, serial[i], parallel[i])
		}
	}
}

// pricedShape is one StepFunc call: the design and operating point
// priced, and the step shape.
type pricedShape struct {
	design     string
	point      arch.DVFSPoint
	decode     bool
	batch, ctx int
}

// countShapes prices through sim.Simulate and counts its calls per
// priced shape.
func countShapes(calls map[pricedShape]int) StepFunc {
	return func(p sim.Params, w model.Workload) sim.Result {
		calls[pricedShape{p.Design.Name, p.DVFS, w.Decode, w.Batch, w.CtxLen}]++
		return sim.Simulate(p, w)
	}
}

// TestCapacitySharesStepCosts: a whole FindCapacity search prices each
// (operating point, phase, batch, context) at most once, where probes
// that each priced through their own table would price a shape once per
// probe. The brownout row reaches its DVFS rung, so shapes at two
// operating points share the table.
func TestCapacitySharesStepCosts(t *testing.T) {
	for _, row := range pinnedSearches() {
		t.Run(row.name, func(t *testing.T) {
			calls := map[pricedShape]int{}
			cfg := row.cfg
			cfg.Simulate = countShapes(calls)
			res, err := FindCapacity(cfg, row.spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Probes < 2 {
				t.Fatalf("search ran %d probes, want several", res.Probes)
			}
			points := map[arch.DVFSPoint]bool{}
			for s, n := range calls {
				if n != 1 {
					t.Errorf("%+v priced %d times in one search, want once", s, n)
				}
				points[s.point] = true
			}
			want := 1
			if cfg.Brownout != nil {
				want = 2 // nominal and the p75 rung
			}
			if len(points) != want {
				t.Errorf("search priced steps at %d operating points, want %d", len(points), want)
			}
		})
	}
}

// TestCapacityMatchesFreshTables: FindCapacity over one shared table
// returns exactly the bytes of the same search whose probes each price
// through a fresh table of their own (MaxPassingRate over RunStream).
func TestCapacityMatchesFreshTables(t *testing.T) {
	for _, row := range pinnedSearches() {
		t.Run(row.name, func(t *testing.T) {
			shared, err := FindCapacity(row.cfg, row.spec)
			if err != nil {
				t.Fatal(err)
			}
			spec := row.spec.withDefaults()
			fresh := CapacityResult{Design: shared.Design, Mesh: shared.Mesh}
			fresh.Capacity, fresh.AtCapacity, fresh.Probes, err = MaxPassingRate(spec.MinRate, spec.MaxRate, spec.Iters,
				func(rate float64) (Report, bool, error) {
					tc := spec.Trace
					tc.Rate = rate
					src, err := NewStream(tc)
					if err != nil {
						return Report{}, false, err
					}
					rep, err := RunStream(row.cfg, src)
					return rep, err == nil && rep.Holds(spec.Goodput, spec.TTFTP99, spec.LatencyP99), err
				})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := goDigest(shared), goDigest(fresh); got != want {
				t.Errorf("shared-table search digest %s, fresh tables %s", got, want)
			}
		})
	}
}
