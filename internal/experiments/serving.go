package experiments

import (
	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// servingSeed fixes every serving trace so the experiment is reproducible
// byte for byte.
const servingSeed = 7

// servingGrid is the arrival-rate × mesh × design-kind scenario matrix.
// Rates bracket the single-node capacity (~0.05 req/s for chat traffic on
// the 45 nm Mugi(256) tile) so the table shows both a system keeping up
// and one shedding into the queue, and the mesh column shows scale-out
// buying the difference back.
func servingGrid() (designs []arch.Design, meshes []noc.Mesh, rates []float64) {
	designs = []arch.Design{arch.Mugi(256), arch.SystolicArray(16, true)}
	meshes = []noc.Mesh{noc.Single, noc.NewMesh(2, 2), noc.NewMesh(4, 4)}
	rates = []float64{0.02, 0.1, 0.5}
	return designs, meshes, rates
}

// Serving regenerates the request-level serving sweep: continuous
// batching of Poisson chat traffic over the simulator's step costs,
// reported as offered vs. sustained throughput, tail latency, and energy
// per request — the production-traffic axis on top of the paper's
// figure-reproduction axis. A second panel compares arrival processes
// (poisson/bursty/diurnal) at a fixed operating point.
func Serving() *Report {
	r := &Report{ID: "serve", Title: "Request-level serving: rate x mesh x design sweep"}
	m := model.Llama2_7B
	designs, meshes, rates := servingGrid()

	type cell struct {
		d    arch.Design
		mesh noc.Mesh
		rate float64
	}
	var cells []cell
	for _, d := range designs {
		for _, mesh := range meshes {
			for _, rate := range rates {
				cells = append(cells, cell{d, mesh, rate})
			}
		}
	}
	reports := make([]serve.Report, len(cells))
	errs := make([]error, len(cells))
	// Fan the grid across the worker pool; each serving run is itself a
	// serial event loop over pure step costs, so the rendering below is
	// byte-identical at any parallelism.
	runner.Map(len(cells), func(i int) {
		tr, err := serve.NewTrace(serve.TraceConfig{
			Kind: serve.Poisson, Rate: cells[i].rate, Requests: 24, Seed: servingSeed,
		})
		if err == nil {
			reports[i], err = serve.Run(serve.Config{
				Model: m, Design: cells[i].d, Mesh: cells[i].mesh,
			}, tr)
		}
		errs[i] = err
	})

	r.Printf("model %s, poisson chat traffic, 24 requests, seed %d", m.Name, servingSeed)
	r.Printf("%-12s %6s %8s %10s %10s %9s %9s %9s %8s",
		"design", "mesh", "offered", "sustained", "tok/s out", "TTFT p50", "p99 lat", "J/req", "batch")
	for i, c := range cells {
		if errs[i] != nil {
			r.Printf("%-12s %6s rate %.2f: ERROR %v", c.d.Name, c.mesh, c.rate, errs[i])
			continue
		}
		rep := reports[i]
		r.Printf("%-12s %6s %8.3f %10.3f %10.2f %8.1fs %8.1fs %9.1f %8.2f",
			c.d.Name, c.mesh, rep.OfferedRate, rep.SustainedRate, rep.TokensPerSecond,
			rep.TTFT.P50, rep.Latency.P99, rep.JoulesPerRequest, rep.MeanBatch)
	}

	r.Printf("-- arrival processes, Mugi(256) 4x4 at 0.5 req/s --")
	r.Printf("%-9s %8s %10s %10s %10s %10s",
		"trace", "offered", "sustained", "TTFT p50", "TTFT p99", "p99 lat")
	kinds := serve.TraceKinds()
	kindReports := make([]serve.Report, len(kinds))
	kindErrs := make([]error, len(kinds))
	runner.Map(len(kinds), func(i int) {
		tr, err := serve.NewTrace(serve.TraceConfig{
			Kind: kinds[i], Rate: 0.5, Requests: 24, Seed: servingSeed, Period: 120,
		})
		if err == nil {
			kindReports[i], err = serve.Run(serve.Config{
				Model: m, Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4),
			}, tr)
		}
		kindErrs[i] = err
	})
	for i, k := range kinds {
		if kindErrs[i] != nil {
			r.Printf("%-9s ERROR %v", k, kindErrs[i])
			continue
		}
		rep := kindReports[i]
		r.Printf("%-9s %8.3f %10.3f %9.1fs %9.1fs %9.1fs",
			k, rep.OfferedRate, rep.SustainedRate, rep.TTFT.P50, rep.TTFT.P99, rep.Latency.P99)
	}
	return r
}
