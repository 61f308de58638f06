package fleet

import (
	"fmt"
	"sync"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/faults"
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
	checkSharesStepCosts(t, PlanSpec{
		Base:   serve.Config{Model: model.Llama2_7B},
		Cells:  []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 4}},
		Policy: JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: 3},
		SLO:    SLO{TTFTP99: 60, LatencyP99: 300},
		Iters:  3,
	})
}

// TestOneReplicaPlanSharesStepCosts: a one-replica search prices each
// shape at most once, plus once by the estimator under JSQ. The brownout
// row's ladder reaches its DVFS rung, so shapes at two operating points
// share its table.
func TestOneReplicaPlanSharesStepCosts(t *testing.T) {
	for _, row := range oneReplicaPlans() {
		t.Run(row.name, func(t *testing.T) { checkSharesStepCosts(t, row.spec) })
	}
}

// checkSharesStepCosts plans spec's first cell, counting the prices of
// each shape, and checks each table priced a shape at most once and
// that shapes were priced at one operating point, two under brownout.
func checkSharesStepCosts(t *testing.T, spec PlanSpec) {
	var mu sync.Mutex
	calls := map[pricedShape]int{}
	spec.Base.Simulate = func(p sim.Params, w model.Workload) sim.Result {
		mu.Lock()
		calls[pricedShape{p.DVFS, w.Decode, w.Batch, w.CtxLen}]++
		mu.Unlock()
		return sim.Simulate(p, w)
	}
	res := Plan(spec)[0]
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Probes < 5 {
		t.Fatalf("cell ran %d probes, want several", res.Probes)
	}
	points := map[arch.DVFSPoint]bool{}
	for s, n := range calls {
		tables := res.Replicas // one per replica
		if spec.Policy == JSQ && s.batch == 1 {
			tables++ // the estimator's
		}
		if n > tables {
			t.Errorf("%+v priced %d times in one cell, want at most once per table (%d)", s, n, tables)
		}
		points[s.point] = true
	}
	want := 1
	if spec.Base.Brownout != nil {
		want = 2 // nominal and the p75 rung
	}
	if len(points) != want {
		t.Errorf("cell priced steps at %d operating points, want %d", len(points), want)
	}
}

// TestPlanMatchesFreshState: every pinned plan's cells return exactly
// the bytes of the same search run the old way, each probe a fleet.Run
// over a fresh serve.NewStream that builds its own step-cost tables and
// RunStats buffer.
func TestPlanMatchesFreshState(t *testing.T) {
	checkMatchesFreshState(t, pinnedPlans())
}

// TestOneReplicaPlanMatchesFreshState: so do the pinned one-replica
// searches.
func TestOneReplicaPlanMatchesFreshState(t *testing.T) {
	checkMatchesFreshState(t, oneReplicaPlans())
}

// checkMatchesFreshState compares, as one subtest per row, each cell of
// the row's plan with the same search over fresh fleet.Run probes.
func checkMatchesFreshState(t *testing.T, rows []pinnedPlan) {
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			spec := row.spec.withDefaults()
			for i, got := range Plan(row.spec) {
				cell := spec.Cells[i]
				cfg := Config{Replica: spec.Base, Replicas: cell.Replicas, Policy: spec.Policy, AffinitySessions: spec.AffinitySessions}
				cfg.Replica.Design, cfg.Replica.Mesh = cell.Design, cell.Mesh
				capacity, at, probes, err := maxPassingRate(spec.MinRate, spec.MaxRate, spec.Iters,
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

// TestProbeStateForgetsIdleReplicas: a probe state reused across probes
// of different traces returns what fresh states return, and a replica a
// probe leaves idle hands on nothing of its last run. Under crashes
// every minute or so, the three-request probes end with replica 2's one
// request orphaned and failed over, so its last run's RunStats lists an
// orphan, and the one-request probes route to replica 0 alone: a state
// that kept replica 2's RunStats would fail that orphan over again.
func TestProbeStateForgetsIdleReplicas(t *testing.T) {
	cfg := faultyConfig()
	cfg.Policy = RoundRobin
	cfg.Faults = faults.Spec{MTBF: 30, MTTR: 60, Seed: 1}
	st := new(probeState)
	for k, p := range []struct {
		rate     float64
		requests int
	}{{0.15, 3}, {0.15, 1}, {0.5, 6}, {0.15, 3}, {0.5, 1}} {
		stream := func() serve.Stream {
			src, err := serve.NewStream(serve.TraceConfig{Kind: serve.Bursty, Rate: p.rate, Requests: p.requests, Seed: testSeed})
			if err != nil {
				t.Fatal(err)
			}
			return src
		}
		if p.requests == 1 && len(st.stats[2].Orphans) == 0 {
			t.Fatalf("probe %d: the last probe left no orphan on replica 2; the test no longer covers a stale hand-off", k)
		}
		shared, err := run(cfg, stream(), st)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := Run(cfg, stream())
		if err != nil {
			t.Fatal(err)
		}
		if p.requests == 1 && fresh.Routed[2] != 0 {
			t.Fatalf("probe %d routed %v; replica 2 must stay idle", k, fresh.Routed)
		}
		if a, b := fmt.Sprintf("%#v", shared), fmt.Sprintf("%#v", fresh); a != b {
			t.Errorf("probe %d (%g req/s, %d requests): a reused probe state diverges from a fresh one:\n%s\nfresh:\n%s", k, p.rate, p.requests, shared, fresh)
		}
	}
}
