package fleet

import (
	"fmt"
	"sync"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/serve"
	"mugi/internal/sim"
)

// pricedShape is one StepFunc call: the operating point and step shape.
type pricedShape struct {
	point      arch.DVFSPoint
	decode     bool
	batch, ctx int
}

// TestPlanSharesStepCosts: over a whole 4-replica JSQ plan cell, each
// (operating point, phase, batch, context) is priced at most once per
// step-cost table of the cell's probe state, that is at most once per
// replica plus once by the JSQ estimator for batch-1 shapes. Probes
// that each built their own tables would price a shape once per probe.
func TestPlanSharesStepCosts(t *testing.T) {
	var mu sync.Mutex
	calls := map[pricedShape]int{}
	spec := PlanSpec{
		Base: serve.Config{Model: model.Llama2_7B, Simulate: func(p sim.Params, w model.Workload) sim.Result {
			mu.Lock()
			calls[pricedShape{p.DVFS, w.Decode, w.Batch, w.CtxLen}]++
			mu.Unlock()
			return sim.Simulate(p, w)
		}},
		Cells:  []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 4}},
		Policy: JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: 3},
		SLO:    SLO{TTFTP99: 60, LatencyP99: 300},
		Iters:  3,
	}
	res := Plan(spec)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Probes < 5 {
		t.Fatalf("cell ran %d probes, want several", res.Probes)
	}
	for s, n := range calls {
		tables := 4 // one per replica
		if s.batch == 1 {
			tables++ // the estimator's
		}
		if n > tables {
			t.Errorf("%+v priced %d times in one cell, want at most once per table (%d)", s, n, tables)
		}
	}
}

// TestPlanMatchesFreshState: every pinned plan's cells return exactly
// the bytes of the same search run the old way, each probe a fleet.Run
// that builds its own step-cost tables and RunStats buffer.
func TestPlanMatchesFreshState(t *testing.T) {
	for _, row := range pinnedPlans() {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec.withDefaults()
			for i, got := range Plan(row.spec) {
				cell := spec.Cells[i]
				cfg := Config{Replica: spec.Base, Replicas: cell.Replicas, Policy: spec.Policy, AffinitySessions: spec.AffinitySessions}
				cfg.Replica.Design, cfg.Replica.Mesh = cell.Design, cell.Mesh
				capacity, at, probes, err := serve.MaxPassingRate(spec.MinRate, spec.MaxRate, spec.Iters,
					func(rate float64) (Report, bool, error) {
						tc := spec.Trace
						tc.Rate = rate
						src, err := serve.NewStream(tc)
						if err != nil {
							return Report{}, false, err
						}
						rep, err := Run(cfg, src)
						return rep, err == nil && rep.Fleet.Holds(spec.Goodput, spec.SLO.TTFTP99, spec.SLO.LatencyP99), err
					})
				if err != nil || got.Err != nil {
					t.Fatalf("cell %d: %v / %v", i, err, got.Err)
				}
				shared := fmt.Sprintf("%#v %#v %#v", got.Capacity, got.Probes, got.At)
				if fresh := fmt.Sprintf("%#v %#v %#v", capacity, probes, at); shared != fresh {
					t.Errorf("cell %d (%s %s x%d): shared probe state diverges from fresh runs", i, got.Design, got.Mesh, got.Replicas)
				}
			}
		})
	}
}
