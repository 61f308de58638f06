package fleet

import (
	"sort"

	"mugi/internal/arch"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// Planner defaults (the serve capacity-search defaults, reused at fleet
// granularity).
const (
	// DefaultPlanRequests is the per-probe trace length.
	DefaultPlanRequests = 32
	// DefaultPlanIters is the log-bisection count after bracketing.
	DefaultPlanIters = 5
)

// SLO bounds the latency tail a cell must hold to count as serving. A
// zero field disables that bound; a zero SLO reduces the planner to a
// pure goodput capacity search.
type SLO struct {
	// TTFTP99 caps the p99 time-to-first-token, in seconds.
	TTFTP99 float64
	// LatencyP99 caps the p99 request latency, in seconds.
	LatencyP99 float64
}

// Cell is one (design, mesh, replica-count) point of a fleet sweep.
type Cell struct {
	Design   arch.Design
	Mesh     noc.Mesh
	Replicas int
}

// PlanSpec parameterizes a fleet plan: the sweep grid, the probe traffic,
// the SLO, and the price book.
type PlanSpec struct {
	// Base supplies everything of the replica serving configuration but
	// design and mesh (model, batch cap, KV budget), which each cell
	// overwrites.
	Base serve.Config
	// Cells is the sweep grid (see Grid for the cross-product helper).
	Cells []Cell
	// Policy routes within each fleet probe (default RoundRobin).
	Policy Policy
	// AffinitySessions parameterizes the Affinity policy.
	AffinitySessions int
	// Trace is the probe-trace template; Rate is overwritten per probe
	// and Requests defaults to DefaultPlanRequests.
	Trace serve.TraceConfig
	// SLO is the tail-latency bound a probe must hold.
	SLO SLO
	// Book prices each cell's operating point.
	Book PriceBook
	// Goodput, MinRate, MaxRate and Iters shape the per-cell capacity
	// search exactly as in serve.CapacitySpec (defaults
	// serve.DefaultGoodput, serve.DefaultMinRate, serve.DefaultMaxRate,
	// DefaultPlanIters).
	Goodput          float64
	MinRate, MaxRate float64
	Iters            int
}

// withDefaults materializes the zero-value defaults.
func (s PlanSpec) withDefaults() PlanSpec {
	if s.Trace.Requests == 0 {
		s.Trace.Requests = DefaultPlanRequests
	}
	if s.Goodput == 0 {
		s.Goodput = serve.DefaultGoodput
	}
	if s.MinRate == 0 {
		s.MinRate = serve.DefaultMinRate
	}
	if s.MaxRate == 0 {
		s.MaxRate = serve.DefaultMaxRate
	}
	if s.Iters == 0 {
		s.Iters = DefaultPlanIters
	}
	return s
}

// validate checks the spec's search knobs as serve.CapacitySpec.Validate
// does, with the SLO as the tail bounds, and its price book.
func (s PlanSpec) validate() error {
	search := serve.CapacitySpec{Goodput: s.Goodput, MinRate: s.MinRate, MaxRate: s.MaxRate, TTFTP99: s.SLO.TTFTP99, LatencyP99: s.SLO.LatencyP99}
	if err := search.Validate(); err != nil {
		return err
	}
	return s.Book.Validate()
}

// Grid builds the cross-product cell list designs × meshes × replicas, in
// deterministic sweep order.
func Grid(designs []arch.Design, meshes []noc.Mesh, replicas []int) []Cell {
	var cells []Cell
	for _, d := range designs {
		for _, m := range meshes {
			for _, n := range replicas {
				cells = append(cells, Cell{Design: d, Mesh: m, Replicas: n})
			}
		}
	}
	return cells
}

// CellResult is one planned cell: its SLO-compliant capacity and the
// priced operating point at that capacity.
type CellResult struct {
	// Design, Mesh and Replicas identify the cell.
	Design   string
	Mesh     string
	Replicas int
	// Capacity is the highest probed arrival rate the fleet sustained
	// while holding the SLO (0 if even the floor rate fails).
	Capacity float64
	// Probes counts fleet runs spent on the search.
	Probes int
	// At is the fleet report of the highest passing probe.
	At Report
	// TCO prices the At operating point (zero when Capacity is 0).
	TCO TCO
	// PerfPerDollar is sustained req/s per burn-rate dollar per hour;
	// PerfPerWatt is sustained req/s per average facility watt. Both are
	// 0 when Capacity is 0.
	PerfPerDollar, PerfPerWatt float64
	// Err carries a per-cell failure (the other fields are zero).
	Err error
}

// Plan searches every cell's SLO-compliant capacity and prices it,
// sharding cells across the runner pool. Each cell runs
// serve.MaxPassingRate, the search serve.FindCapacity runs, with a
// fleet run as the probe and "goodput held AND SLO met" as the pass
// criterion; a cell's probes share one probe state (planCell). Results
// are collected by cell index, so output order — and every byte of
// every report — is independent of parallelism.
func Plan(spec PlanSpec) []CellResult {
	spec = spec.withDefaults()
	out := make([]CellResult, len(spec.Cells))
	runner.Map(len(spec.Cells), func(i int) {
		out[i] = planCell(spec, spec.Cells[i])
	})
	return out
}

// planCell searches one cell. Its probes differ only in trace rate, so
// they share one probe state: each replica index keeps its step-cost
// table from probe to probe, as do the JSQ estimator and the RunStats
// buffer, and each step shape is priced once per cell, not per probe.
func planCell(spec PlanSpec, cell Cell) CellResult {
	res := CellResult{Design: cell.Design.Name, Mesh: cell.Mesh.String(), Replicas: cell.Replicas}
	if err := spec.validate(); err != nil {
		res.Err = err
		return res
	}
	cfg := Config{
		Replica:          spec.Base,
		Replicas:         cell.Replicas,
		Policy:           spec.Policy,
		AffinitySessions: spec.AffinitySessions,
	}
	cfg.Replica.Design = cell.Design
	cfg.Replica.Mesh = cell.Mesh

	st := new(probeState)
	probe := func(rate float64) (Report, bool, error) {
		tc := spec.Trace
		tc.Rate = rate
		src, err := serve.NewStream(tc)
		if err != nil {
			return Report{}, false, err
		}
		rep, err := run(cfg, src, st)
		if err != nil {
			return Report{}, false, err
		}
		return rep, rep.Fleet.Holds(spec.Goodput, spec.SLO.TTFTP99, spec.SLO.LatencyP99), nil
	}

	var err error
	res.Capacity, res.At, res.Probes, err = serve.MaxPassingRate(spec.MinRate, spec.MaxRate, spec.Iters, probe)
	if err != nil {
		res.Err = err
		return res
	}
	if res.Capacity == 0 {
		return res
	}
	tco, err := Price(spec.Book, cell.Design, cell.Mesh, cell.Replicas, res.At.Fleet)
	if err != nil {
		res.Err = err
		return res
	}
	res.TCO = tco
	if tco.DollarsPerHour > 0 {
		res.PerfPerDollar = res.At.Fleet.SustainedRate / tco.DollarsPerHour
	}
	if tco.AvgWatts > 0 {
		res.PerfPerWatt = res.At.Fleet.SustainedRate / tco.AvgWatts
	}
	return res
}

// FrontierAxis selects the cost axis dominance is judged on.
type FrontierAxis int

const (
	// ByDollar judges cost as the fleet burn rate ($/hour) — the perf/$
	// frontier.
	ByDollar FrontierAxis = iota
	// ByWatt judges cost as average facility power — the perf/W frontier.
	ByWatt
)

// String names the axis for renderings.
func (a FrontierAxis) String() string {
	if a == ByWatt {
		return "perf/W"
	}
	return "perf/$"
}

// cost extracts the axis value of one cell.
func (a FrontierAxis) cost(r CellResult) float64 {
	if a == ByWatt {
		return r.TCO.AvgWatts
	}
	return r.TCO.DollarsPerHour
}

// Frontier prunes dominated cells: a cell survives iff no other planned
// cell offers at least its capacity at strictly lower cost, or strictly
// more capacity at no more cost. Errored and zero-capacity cells never
// survive. The frontier is returned sorted by ascending cost (ties by
// ascending capacity, then by input order), so it reads bottom-up as
// "the cheapest way to buy each next increment of throughput".
func Frontier(results []CellResult, axis FrontierAxis) []CellResult {
	var out []CellResult
	for i, r := range results {
		if r.Err != nil || r.Capacity <= 0 {
			continue
		}
		dominated := false
		for j, o := range results {
			if i == j || o.Err != nil || o.Capacity <= 0 {
				continue
			}
			oc, rc := axis.cost(o), axis.cost(r)
			if oc <= rc && o.Capacity >= r.Capacity && (oc < rc || o.Capacity > r.Capacity) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, r)
		}
	}
	// Stable sort: full ties keep their input (sweep) order.
	sort.SliceStable(out, func(a, b int) bool {
		ca, cb := axis.cost(out[a]), axis.cost(out[b])
		if ca != cb {
			return ca < cb
		}
		return out[a].Capacity < out[b].Capacity
	})
	return out
}
