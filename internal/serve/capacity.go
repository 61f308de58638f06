// Capacity search: the serving question inverted. Instead of "what does
// this hardware do at rate r", FindCapacity binary-searches the highest
// arrival rate a (design, mesh) cell sustains — the headline a deployment
// is sized by — and SearchCapacity shards a grid of cells across the
// runner pool. Every probe is a deterministic RunStream over a seeded
// trace, and the search path depends only on probe outcomes, so results
// are byte-identical at any parallelism.

package serve

import (
	"fmt"
	"math"

	"mugi/internal/arch"
	"mugi/internal/noc"
	"mugi/internal/runner"
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
	// DefaultCapacityIters is the bisection count after bracketing; each
	// iteration halves the bracket in log space (~7% final resolution
	// from a one-octave bracket).
	DefaultCapacityIters = 6
	// DefaultProbeRequests is the per-probe trace length.
	DefaultProbeRequests = 48
)

// CapacitySpec parameterizes a capacity search.
type CapacitySpec struct {
	// Trace is the probe-trace template; Rate is overwritten per probe
	// and Requests defaults to DefaultProbeRequests.
	Trace TraceConfig
	// Goodput is the sustained/offered pass threshold (default
	// DefaultGoodput).
	Goodput float64
	// MinRate/MaxRate bracket the search (defaults DefaultMinRate,
	// DefaultMaxRate).
	MinRate, MaxRate float64
	// Iters is the bisection count after geometric bracketing (default
	// DefaultCapacityIters).
	Iters int
	// TTFTP99 and LatencyP99, when positive, additionally require each
	// probe's p99 tail (seconds) to hold the bound — the SLO-bound
	// capacity search a MinuteServe entry is scored by. Zero disables a
	// bound, leaving the pure goodput criterion byte-identical to earlier
	// releases.
	TTFTP99, LatencyP99 float64
}

// withDefaults materializes the zero-value defaults.
func (s CapacitySpec) withDefaults() CapacitySpec {
	if s.Trace.Requests == 0 {
		s.Trace.Requests = DefaultProbeRequests
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
		s.Iters = DefaultCapacityIters
	}
	return s
}

// CapacityResult is one searched cell.
type CapacityResult struct {
	// Design and Mesh identify the cell.
	Design, Mesh string
	// Capacity is the highest probed rate the cell sustained (0 if even
	// MinRate overloads it).
	Capacity float64
	// Probes counts serving runs spent on the search.
	Probes int
	// AtCapacity is the report of the highest sustaining probe (zero
	// Report when Capacity is 0).
	AtCapacity Report
	// Err carries a per-cell failure in sharded searches (nil on the
	// single-cell FindCapacity path, which returns it directly).
	Err error
}

// FindCapacity binary-searches the maximum sustained request rate of one
// configuration: geometric doubling brackets the capacity between a
// passing and a failing rate, then log-space bisection narrows it. The
// probe sequence is fully deterministic, so identical inputs return
// byte-identical results at any runner parallelism.
func FindCapacity(cfg Config, spec CapacitySpec) (CapacityResult, error) {
	cfg = cfg.withDefaults()
	spec = spec.withDefaults()
	if spec.Goodput <= 0 || spec.Goodput > 1 {
		return CapacityResult{}, fmt.Errorf("serve: goodput %g must be in (0, 1]", spec.Goodput)
	}
	res := CapacityResult{Design: cfg.Design.Name, Mesh: cfg.Mesh.String()}
	probe := func(rate float64) (Report, bool, error) {
		tc := spec.Trace
		tc.Rate = rate
		src, err := NewStream(tc)
		if err != nil {
			return Report{}, false, err
		}
		rep, err := RunStream(cfg, src)
		if err != nil {
			return Report{}, false, err
		}
		return rep, rep.Holds(spec.Goodput, spec.TTFTP99, spec.LatencyP99), nil
	}

	var err error
	res.Capacity, res.AtCapacity, res.Probes, err = MaxPassingRate(spec.MinRate, spec.MaxRate, spec.Iters, probe)
	return res, err
}

// MaxPassingRate is the capacity search loop, generic over the probe's
// report type so the single-replica search and the fleet planner share
// it. Geometric doubling from minRate brackets the capacity between a
// passing and a failing rate (or saturates at maxRate), then iters
// log-space bisections narrow it. It returns the highest passing rate (0
// when minRate already fails), that probe's report and the number of
// probes spent; an invalid bracket, or a probe error, stops the search
// with the results so far.
func MaxPassingRate[R any](minRate, maxRate float64, iters int, probe func(rate float64) (R, bool, error)) (capacity float64, at R, probes int, err error) {
	if minRate <= 0 || maxRate < minRate {
		return 0, at, 0, fmt.Errorf("serve: capacity bracket [%g, %g] invalid", minRate, maxRate)
	}
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

// CapacityCell is one (design, mesh) point of a sharded capacity search.
type CapacityCell struct {
	Design arch.Design
	Mesh   noc.Mesh
}

// SearchCapacity runs FindCapacity for every cell, sharding cells across
// the runner pool. Each cell's search is serial and deterministic and
// results are collected by index, so the output is byte-identical at any
// parallelism; per-cell failures land in CapacityResult.Err. base
// supplies everything but the cell's design and mesh.
func SearchCapacity(base Config, cells []CapacityCell, spec CapacitySpec) []CapacityResult {
	out := make([]CapacityResult, len(cells))
	runner.Map(len(cells), func(i int) {
		cfg := base
		cfg.Design = cells[i].Design
		cfg.Mesh = cells[i].Mesh
		res, err := FindCapacity(cfg, spec)
		res.Err = err
		out[i] = res
	})
	return out
}
