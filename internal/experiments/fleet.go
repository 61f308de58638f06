package experiments

import (
	"mugi/internal/arch"
	"mugi/internal/fleet"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// Fleet regenerates the fleet-planning sweep: for every (design, mesh,
// replica-count) cell, the maximum SLO-compliant Poisson chat rate the
// fleet sustains under JSQ routing, priced by the TCO model, followed by
// the dominated-cell-pruned perf/$ and perf/W frontiers. This is the
// Gray performance/price lens over the whole serving stack: the capacity
// experiment answers "what can one mesh sustain?", this one answers
// "what fleet should I buy?".
func Fleet() *Report {
	r := &Report{ID: "fleet", Title: "Fleet planner: SLO capacity, TCO, and price-performance frontiers"}
	m := model.Llama2_7B
	spec := fleet.PlanSpec{
		Base: serve.Config{Model: m},
		Cells: fleet.Grid(
			[]arch.Design{arch.Mugi(256), arch.SystolicArray(16, true)},
			[]noc.Mesh{noc.Single, noc.NewMesh(2, 2)},
			[]int{1, 2, 4},
		),
		Policy: fleet.JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 16, Seed: servingSeed},
		SLO:    fleet.SLO{TTFTP99: 60, LatencyP99: 300},
		Iters:  3,
	}
	results := fleet.Plan(spec)

	r.Printf("model %s, poisson chat probes (%d requests/probe, seed %d), jsq routing",
		m.Name, spec.Trace.Requests, servingSeed)
	r.Printf("SLO: TTFT p99 <= %.0fs, latency p99 <= %.0fs; goodput >= %.2f",
		spec.SLO.TTFTP99, spec.SLO.LatencyP99, fleet.DefaultGoodput)
	r.Printf("%-12s %5s %4s %9s %7s %9s %9s %10s %9s %8s",
		"design", "mesh", "reps", "capacity", "probes", "$/hour", "$/1k req", "$/Mtok", "watts", "gCO2/1k")
	for _, res := range results {
		if res.Err != nil {
			r.Printf("%-12s %5s %4d ERROR %v", res.Design, res.Mesh, res.Replicas, res.Err)
			continue
		}
		if res.Capacity == 0 {
			r.Printf("%-12s %5s %4d  cannot hold the SLO at the floor rate", res.Design, res.Mesh, res.Replicas)
			continue
		}
		r.Printf("%-12s %5s %4d %9.4f %7d %9.4f %9.4f %10.4f %9.2f %8.1f",
			res.Design, res.Mesh, res.Replicas, res.Capacity, res.Probes,
			res.TCO.DollarsPerHour, res.TCO.DollarsPer1k, res.TCO.DollarsPerMTok,
			res.TCO.AvgWatts, res.TCO.CarbonGramsPer1k)
	}

	for _, axis := range []fleet.FrontierAxis{fleet.ByDollar, fleet.ByWatt} {
		front := fleet.Frontier(results, axis)
		r.Printf("-- %s frontier (%d of %d cells survive dominance pruning) --",
			axis, len(front), len(results))
		for _, f := range front {
			r.Printf("%-12s %5s x%d  %.4f req/s  $%.4f/h  %.2f W  %.4f req/s/$/h  %.4f req/s/W",
				f.Design, f.Mesh, f.Replicas, f.Capacity,
				f.TCO.DollarsPerHour, f.TCO.AvgWatts, f.PerfPerDollar, f.PerfPerWatt)
		}
	}
	return r
}
