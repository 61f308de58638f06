package serve

import (
	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/sim"
)

// StepCost is the part of one simulated pass the scheduler consumes.
type StepCost struct {
	// Seconds and DynamicEnergy are the pass's latency and switching
	// energy (sim.Result.Seconds, DynamicEnergy).
	Seconds, DynamicEnergy float64
	// LeakageWatts is the configuration's static power.
	LeakageWatts float64
	// NoCLimited marks a pass throttled by the NoC bandwidth.
	NoCLimited bool
}

// stepKey names one priced pass within a run: the operating point's
// index among the run's points and the quantized step shape. Everything
// else in the simulator input comes from the run's Config, so the key is
// complete by construction.
type stepKey struct {
	batch, ctx int
	point      int32
	decode     bool
}

// StepCosts is a per-run step-cost table: each distinct (operating
// point, prefill or decode, batch, quantized context) is priced through
// the configuration's StepFunc once, and every later step of that shape
// reads the table. CtxBucket quantization bounds a run to
// O(MaxBatch × MaxSeq/CtxBucket) shapes per operating point, so nearly
// every step of a long run is a table read. The table lives and dies
// with its run: the StepFunc is injectable and runner.ResetCache must
// give a cold start, so no entry outlives the run that priced it. It
// hands the StepFunc its operator list in reusable scratch, valid only
// during the call.
type StepCosts struct {
	model    model.Config
	params   sim.Params
	simulate StepFunc
	points   []arch.DVFSPoint // the run's operating points, indexed by stepKey.point
	costs    map[stepKey]StepCost
	ops      []model.Op // operator scratch of the shape being priced
}

// NewStepCosts returns an empty table pricing passes of cfg, with cfg's
// zero-value defaults applied as a run applies them.
func NewStepCosts(cfg Config) *StepCosts {
	s := new(StepCosts)
	s.reset(cfg.withDefaults())
	return s
}

// reset empties the table for a run of the defaulted cfg, keeping its
// storage.
func (s *StepCosts) reset(cfg Config) {
	s.model, s.params, s.simulate = cfg.Model, cfg.Params(), cfg.Simulate
	s.points = s.points[:0]
	if s.costs == nil {
		s.costs = make(map[stepKey]StepCost)
	}
	clear(s.costs)
}

// Cost returns the cost of one pass at the operating point: a prefill of
// batch requests over ctx prompt tokens, or a decode step of batch
// requests at context ctx. ctx is priced as given; callers quantize it
// first (Config.BucketCtx).
func (s *StepCosts) Cost(point arch.DVFSPoint, decode bool, batch, ctx int) StepCost {
	return s.cost(s.point(point), decode, batch, ctx)
}

// point returns the index of an operating point among the run's points,
// adding it on first use.
//
//mugi:noalloc
func (s *StepCosts) point(p arch.DVFSPoint) int32 {
	for i, q := range s.points {
		if q == p {
			return int32(i)
		}
	}
	s.points = append(s.points, p)
	return int32(len(s.points) - 1)
}

// cost looks one pass up, pricing it on a miss.
//
//mugi:noalloc
func (s *StepCosts) cost(point int32, decode bool, batch, ctx int) StepCost {
	k := stepKey{batch: batch, ctx: ctx, point: point, decode: decode}
	if c, ok := s.costs[k]; ok {
		return c
	}
	return s.price(k)
}

// price simulates a shape missing from the table and records its cost.
func (s *StepCosts) price(k stepKey) StepCost {
	var w model.Workload
	if k.decode {
		w = s.model.AppendDecodeOps(s.ops[:0], k.batch, k.ctx)
	} else {
		w = s.model.AppendPrefillOps(s.ops[:0], k.batch, k.ctx)
	}
	s.ops = w.Ops
	p := s.params
	p.DVFS = s.points[k.point]
	res := s.simulate(p, w)
	c := StepCost{Seconds: res.Seconds, DynamicEnergy: res.DynamicEnergy, LeakageWatts: res.LeakageWatts, NoCLimited: res.NoCLimited}
	s.costs[k] = c
	return c
}
