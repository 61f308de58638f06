package fleet

import (
	"fmt"

	"mugi/internal/faults"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// NinesSpec parameterizes the price-of-nines sweep: the same fleet cells
// the capacity planner sweeps, crossed with an N+k spare-capacity axis,
// each run against one fixed faulty probe trace. Where PlanSpec asks
// "how fast can this fleet go?", NinesSpec asks "how much of the offered
// load survives a week of failures, and what does each extra nine cost?".
type NinesSpec struct {
	// Base supplies everything of the replica serving configuration but
	// design and mesh (model, batch cap, KV budget), which each cell
	// overwrites.
	Base serve.Config
	// Cells is the sweep grid; Cell.Replicas is the baseline (unspared)
	// replica count.
	Cells []Cell
	// Spares lists the k values of the N+k axis: each cell runs once per
	// k with Replicas+k replicas, all active behind the router (spare
	// capacity is spread, not parked). Default {0}.
	Spares []int
	// Policy routes within each probe (default RoundRobin).
	Policy Policy
	// AffinitySessions parameterizes the Affinity policy.
	AffinitySessions int
	// Trace is the probe traffic every (cell, k) point serves — one fixed
	// trace, so availability differences come from the fleet, not the
	// load.
	Trace serve.TraceConfig
	// Faults is the injected failure model (replica i of every probe
	// draws its timeline from (Faults.Seed, i)).
	Faults faults.Spec
	// MaxRedispatch and FailoverDelay shape failover exactly as in
	// Config.
	MaxRedispatch int
	FailoverDelay float64
	// Book prices each operating point.
	Book PriceBook
}

// withDefaults materializes the zero-value defaults.
func (s NinesSpec) withDefaults() NinesSpec {
	if len(s.Spares) == 0 {
		s.Spares = []int{0}
	}
	return s
}

// NinesResult is one (cell, spares) point of the price-of-nines sweep.
type NinesResult struct {
	// Design, Mesh, Replicas and Spares identify the point; the probe ran
	// Replicas+Spares active replicas.
	Design   string
	Mesh     string
	Replicas int
	Spares   int
	// At is the faulty fleet report.
	At Report
	// Availability is the completed fraction of offered requests;
	// Nines is -log10(1-Availability).
	Availability, Nines float64
	// TCO prices the operating point. Capex charges every owned replica,
	// spares included, while throughput counts only completed requests —
	// so DollarsPer1k is the price that already contains the nines.
	TCO TCO
	// DollarsPer1k mirrors TCO.DollarsPer1k (the frontier's cost axis).
	DollarsPer1k float64
	// Err carries a per-point failure (the other fields are zero).
	Err error
}

// String renders one sweep row deterministically.
func (r NinesResult) String() string {
	if r.Err != nil {
		return fmt.Sprintf("%s %s N=%d+%d: error: %v", r.Design, r.Mesh, r.Replicas, r.Spares, r.Err)
	}
	return fmt.Sprintf("%s %s N=%d+%d: availability %.4f%% (%s)  $%.4f/1k  %d crashes  %d redispatched  %d shed",
		r.Design, r.Mesh, r.Replicas, r.Spares,
		r.Availability*100, faults.NinesString(r.Availability),
		r.DollarsPer1k, r.At.Fleet.Crashes, r.At.Fleet.Redispatched, r.At.Fleet.Shed)
}

// PlanNines runs every (cell, spares) point against the faulty probe
// trace and prices it, sharding points across the runner pool. Points
// are collected by sweep index — cells in input order, each cell's
// spares in input order — so output order and every report byte are
// independent of parallelism.
func PlanNines(spec NinesSpec) []NinesResult {
	spec = spec.withDefaults()
	type point struct {
		cell Cell
		k    int
	}
	var pts []point
	for _, c := range spec.Cells {
		for _, k := range spec.Spares {
			pts = append(pts, point{cell: c, k: k})
		}
	}
	out := make([]NinesResult, len(pts))
	// Each point's fleet.Run shards its replicas through the same runner
	// pool; runner.Map nests safely and the merge order inside Run is
	// fixed, so the whole sweep stays byte-stable.
	runner.Map(len(pts), func(i int) {
		out[i] = ninesPoint(spec, pts[i].cell, pts[i].k)
	})
	return out
}

// ninesPoint runs one (cell, spares) probe.
func ninesPoint(spec NinesSpec, cell Cell, k int) NinesResult {
	res := NinesResult{Design: cell.Design.Name, Mesh: cell.Mesh.String(), Replicas: cell.Replicas, Spares: k}
	if k < 0 {
		res.Err = fmt.Errorf("fleet: spare count %d must be non-negative", k)
		return res
	}
	cfg := Config{
		Replica:          spec.Base,
		Replicas:         cell.Replicas + k,
		Policy:           spec.Policy,
		AffinitySessions: spec.AffinitySessions,
		Faults:           spec.Faults,
		MaxRedispatch:    spec.MaxRedispatch,
		FailoverDelay:    spec.FailoverDelay,
	}
	cfg.Replica.Design = cell.Design
	cfg.Replica.Mesh = cell.Mesh
	src, err := serve.NewStream(spec.Trace)
	if err != nil {
		res.Err = err
		return res
	}
	rep, err := Run(cfg, src)
	if err != nil {
		res.Err = err
		return res
	}
	res.At = rep
	res.Availability = rep.Fleet.Availability
	res.Nines = rep.Fleet.Nines
	if rep.Fleet.Completed == 0 {
		res.Err = fmt.Errorf("fleet: no request survived the faulty probe (availability 0)")
		return res
	}
	tco, err := Price(spec.Book, cell.Design, cell.Mesh, cell.Replicas+k, rep.Fleet)
	if err != nil {
		res.Err = err
		return res
	}
	res.TCO = tco
	res.DollarsPer1k = tco.DollarsPer1k
	return res
}

// NinesFrontier prunes dominated points: a point survives iff no other
// offers at least its availability at strictly lower $/1k-requests, or
// strictly more availability at no higher price. Errored points never
// survive. The frontier is returned sorted by ascending price (ties by
// ascending availability, then input order), so it reads bottom-up as
// "the cheapest way to buy each next nine".
func NinesFrontier(results []NinesResult) []NinesResult {
	return pareto(results,
		func(r *NinesResult) bool { return r.Err == nil },
		func(r *NinesResult) float64 { return r.DollarsPer1k },
		func(r *NinesResult) float64 { return r.Availability })
}

// CheapestAtLeast returns the cheapest planned point whose availability
// meets the target (e.g. 0.999 for three nines), or ok=false if none
// does. Ties break toward fewer spares, then input order.
func CheapestAtLeast(results []NinesResult, target float64) (NinesResult, bool) {
	best, ok := NinesResult{}, false
	for _, r := range results {
		if r.Err != nil || r.Availability < target {
			continue
		}
		if !ok || r.DollarsPer1k < best.DollarsPer1k ||
			(r.DollarsPer1k == best.DollarsPer1k && r.Spares < best.Spares) {
			best, ok = r, true
		}
	}
	return best, ok
}
