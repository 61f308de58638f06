package fleet

import (
	"fmt"
	"math"
	"sort"

	"mugi/internal/arch"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// Capacity-search defaults.
const (
	// DefaultGoodput is the sustained/offered ratio a probe must reach to
	// count as "keeping up". Finite probe traces pay a drain tail after
	// the last arrival, so 1.0 would reject every rate; 0.9 tolerates the
	// tail while still rejecting a growing queue.
	DefaultGoodput = 0.9
	// DefaultMinRate is the search's lower bracket (req/s) — below any
	// single studied node's capacity.
	DefaultMinRate = 1.0 / 128
	// DefaultMaxRate is the search's upper bracket (req/s).
	DefaultMaxRate = 64
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
	// Goodput is the sustained/offered ratio a probe must reach to pass
	// (default DefaultGoodput).
	Goodput float64
	// MinRate and MaxRate bracket each cell's search in req/s (defaults
	// DefaultMinRate, DefaultMaxRate).
	MinRate, MaxRate float64
	// Iters is the log-bisection count after geometric bracketing
	// (default DefaultPlanIters).
	Iters int
}

// withDefaults materializes the zero-value defaults.
func (s PlanSpec) withDefaults() PlanSpec {
	if s.Trace.Requests == 0 {
		s.Trace.Requests = DefaultPlanRequests
	}
	if s.Goodput == 0 {
		s.Goodput = DefaultGoodput
	}
	if s.MinRate == 0 {
		s.MinRate = DefaultMinRate
	}
	if s.MaxRate == 0 {
		s.MaxRate = DefaultMaxRate
	}
	if s.Iters == 0 {
		s.Iters = DefaultPlanIters
	}
	return s
}

// validate checks the defaulted spec's knobs: Goodput in (0, 1], a
// positive finite MinRate, a finite MaxRate of at least MinRate, a probe
// trace valid at both, finite non-negative SLO bounds (0 disables a
// bound), and the price book. Each check is written so that NaN fails it.
func (s PlanSpec) validate() error {
	if !(s.Goodput > 0 && s.Goodput <= 1) {
		return fmt.Errorf("fleet: Goodput %g must be in (0, 1]", s.Goodput)
	}
	if !(s.MinRate > 0) || math.IsInf(s.MinRate, 1) {
		return fmt.Errorf("fleet: MinRate %g must be positive and finite", s.MinRate)
	}
	if !(s.MaxRate >= s.MinRate) || math.IsInf(s.MaxRate, 1) {
		return fmt.Errorf("fleet: MaxRate %g must be finite and at least MinRate %g", s.MaxRate, s.MinRate)
	}
	// Every probe's rate lies in [MinRate, MaxRate], and each bound a
	// trace puts on its rate is a floor or a ceiling, so a trace valid at
	// both ends is valid at every probe.
	for _, end := range [...]struct {
		name string
		rate float64
	}{{"MinRate", s.MinRate}, {"MaxRate", s.MaxRate}} {
		tc := s.Trace
		tc.Rate = end.rate
		if err := tc.Validate(); err != nil {
			return fmt.Errorf("fleet: %s %g: %w", end.name, end.rate, err)
		}
	}
	if !(s.SLO.TTFTP99 >= 0) || math.IsInf(s.SLO.TTFTP99, 1) {
		return fmt.Errorf("fleet: TTFTP99 %g must be finite and non-negative (0 disables the bound)", s.SLO.TTFTP99)
	}
	if !(s.SLO.LatencyP99 >= 0) || math.IsInf(s.SLO.LatencyP99, 1) {
		return fmt.Errorf("fleet: LatencyP99 %g must be finite and non-negative (0 disables the bound)", s.SLO.LatencyP99)
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
// sharding cells across the runner pool. Every SLO-bound capacity search
// in the repository is a Plan cell; a one-replica cell searches a single
// serving configuration. Each cell runs maxPassingRate with a fleet run
// as the probe and "goodput held AND SLO met" as the pass criterion; a
// cell's probes share one probe state (planCell). An invalid spec fails
// every cell before any probe runs. Results are collected by cell index,
// so output order — and every byte of every report — is independent of
// parallelism.
func Plan(spec PlanSpec) []CellResult {
	spec = spec.withDefaults()
	out := make([]CellResult, len(spec.Cells))
	if err := spec.validate(); err != nil {
		for i, cell := range spec.Cells {
			out[i] = CellResult{Design: cell.Design.Name, Mesh: cell.Mesh.String(), Replicas: cell.Replicas, Err: err}
		}
		return out
	}
	runner.Map(len(spec.Cells), func(i int) {
		out[i] = planCell(spec, spec.Cells[i])
	})
	return out
}

// planCell searches one cell of a validated spec. Its probes differ only
// in trace rate, so they share one probe state: each replica index keeps
// its step-cost table from probe to probe, as do the JSQ estimator and
// the RunStats buffer, and each step shape is priced once per cell, not
// per probe. They also replay one recording of the trace's draws, so
// each of its random sources is seeded once per cell.
func planCell(spec PlanSpec, cell Cell) CellResult {
	res := CellResult{Design: cell.Design.Name, Mesh: cell.Mesh.String(), Replicas: cell.Replicas}
	cfg := Config{
		Replica:          spec.Base,
		Replicas:         cell.Replicas,
		Policy:           spec.Policy,
		AffinitySessions: spec.AffinitySessions,
	}
	cfg.Replica.Design = cell.Design
	cfg.Replica.Mesh = cell.Mesh

	st := new(probeState)
	var draws serve.Draws
	probe := func(rate float64) (Report, bool, error) {
		tc := spec.Trace
		tc.Rate = rate
		src, err := draws.Stream(tc)
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
	res.Capacity, res.At, res.Probes, err = maxPassingRate(spec.MinRate, spec.MaxRate, spec.Iters, probe)
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

// maxPassingRate is the capacity search loop over a validated bracket
// (0 < minRate <= maxRate, both finite). Geometric doubling from minRate
// brackets the capacity between a passing and a failing rate (or
// saturates at maxRate), then iters log-space bisections narrow it. It
// returns the highest passing rate (0 when minRate already fails), that
// probe's report and the number of probes spent; a probe error stops the
// search with the results so far. The path depends only on probe
// outcomes, so deterministic probes make a deterministic search.
func maxPassingRate(minRate, maxRate float64, iters int, probe func(rate float64) (Report, bool, error)) (capacity float64, at Report, probes int, err error) {
	rep, ok, err := probe(minRate)
	probes++
	if err != nil || !ok {
		// An error, or even the lower bracket overloads the cell.
		return 0, at, probes, err
	}
	capacity, at = minRate, rep

	// Geometric doubling until a rate fails (or the bracket tops out).
	hi := minRate
	for ok && hi < maxRate {
		hi = math.Min(hi*2, maxRate)
		rep, ok, err = probe(hi)
		probes++
		if err != nil {
			return capacity, at, probes, err
		}
		if ok {
			capacity, at = hi, rep
		}
	}
	if ok {
		// Sustained at maxRate itself; the search saturates there.
		return capacity, at, probes, nil
	}

	// Log-space bisection between the last passing and first failing rate.
	lo := capacity
	for i := 0; i < iters; i++ {
		mid := math.Sqrt(lo * hi)
		rep, ok, err = probe(mid)
		probes++
		if err != nil {
			return capacity, at, probes, err
		}
		if ok {
			lo = mid
			capacity, at = mid, rep
		} else {
			hi = mid
		}
	}
	return capacity, at, probes, nil
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
func (a FrontierAxis) cost(r *CellResult) float64 {
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
	return pareto(results,
		func(r *CellResult) bool { return r.Err == nil && r.Capacity > 0 },
		axis.cost,
		func(r *CellResult) float64 { return r.Capacity })
}

// pareto keeps the candidates that no other candidate dominates — one
// dominates another when it costs no more and gains no less, and is
// strictly better on one of the two — sorted by ascending cost, ties by
// ascending gain, then input order.
func pareto[T any](xs []T, candidate func(*T) bool, cost, gain func(*T) float64) []T {
	var out []T
	for i := range xs {
		x := &xs[i]
		if !candidate(x) {
			continue
		}
		xc, xg := cost(x), gain(x)
		dominated := false
		for j := range xs {
			o := &xs[j]
			if i == j || !candidate(o) {
				continue
			}
			oc, og := cost(o), gain(o)
			if oc <= xc && og >= xg && (oc < xc || og > xg) {
				dominated = true
				break
			}
		}
		if !dominated {
			out = append(out, *x)
		}
	}
	// Stable sort: full ties keep their input (sweep) order.
	sort.SliceStable(out, func(a, b int) bool {
		if ca, cb := cost(&out[a]), cost(&out[b]); ca != cb {
			return ca < cb
		}
		return gain(&out[a]) < gain(&out[b])
	})
	return out
}
