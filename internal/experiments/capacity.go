package experiments

import (
	"mugi/internal/arch"
	"mugi/internal/fleet"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// Capacity regenerates the capacity-search sweep: for each (design, mesh)
// cell, the maximum Poisson chat arrival rate one replica sustains
// (goodput ≥ fleet.DefaultGoodput, no SLO), found by a one-replica
// fleet.Plan cell's deterministic bracketing + bisection, with cells
// sharded across the runner pool. This is the sizing table on top of the
// serving sweep: instead of sampling fixed rates, each row reports where
// the configuration's rate-capacity actually lies.
func Capacity() *Report {
	r := &Report{ID: "capacity", Title: "Capacity search: max sustained req/s per design x mesh"}
	m := model.Llama2_7B
	spec := fleet.PlanSpec{
		Base: serve.Config{Model: m},
		Cells: []fleet.Cell{
			{Design: arch.Mugi(256), Mesh: noc.Single, Replicas: 1},
			{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 1},
			{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), Replicas: 1},
			{Design: arch.SystolicArray(16, true), Mesh: noc.Single, Replicas: 1},
			{Design: arch.SystolicArray(16, true), Mesh: noc.NewMesh(4, 4), Replicas: 1},
		},
		Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: servingSeed},
		Iters: 5,
	}
	results := fleet.Plan(spec)

	r.Printf("model %s, poisson chat probes (%d requests/probe, seed %d), goodput >= %.2f",
		m.Name, spec.Trace.Requests, servingSeed, fleet.DefaultGoodput)
	r.Printf("%-12s %6s %10s %7s %10s %9s %9s %9s",
		"design", "mesh", "capacity", "probes", "tok/s out", "TTFT p99", "p99 lat", "J/req")
	for _, res := range results {
		if res.Err != nil {
			r.Printf("%-12s %6s ERROR %v", res.Design, res.Mesh, res.Err)
			continue
		}
		if res.Capacity == 0 {
			r.Printf("%-12s %6s  unsustainable at floor rate", res.Design, res.Mesh)
			continue
		}
		at := res.At.Fleet
		r.Printf("%-12s %6s %10.4f %7d %10.2f %8.1fs %8.1fs %9.1f",
			res.Design, res.Mesh, res.Capacity, res.Probes,
			at.TokensPerSecond, at.TTFT.P99, at.Latency.P99, at.JoulesPerRequest)
	}
	return r
}
