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
// index among the run's points and the step shape. Everything else in
// the simulator input comes from the run's Config, so the key is
// complete by construction.
type stepKey struct {
	batch, ctx int
	point      int32
	decode     bool
}

// costEntry is one slot of the dense table: a priced pass, the context
// it was priced at, and the generation of the run that priced it.
type costEntry struct {
	cost StepCost
	ctx  int
	gen  uint32
}

// maxSlots bounds a dense row's context slots, for a model without a
// MaxSeq or a tiny CtxBucket; longer contexts go to the spill map.
const maxSlots = 1 << 13

// StepCosts is a per-run step-cost table: each distinct (operating
// point, prefill or decode, batch, context) is priced through the
// configuration's StepFunc once, and every later step of that shape
// reads the table. The table is dense: rows indexed by operating point,
// phase and batch, each a slice of context slots ceil(ctx/CtxBucket), so
// a lookup is a few index operations. CtxBucket quantization puts one
// context in each slot on the scheduler's grid; a slot holding another
// context (an unaligned ctx from Cost) is a miss, priced once into a
// spill map, never a wrong hit. Entries live and die with their run:
// the StepFunc is injectable and runner.ResetCache must give a cold
// start, so no entry outlives the run that priced it. Rows are allocated
// on their first miss and kept for later runs, and each entry carries
// its run's generation stamp, so starting a run retires every entry in
// O(1). The table hands the StepFunc its operator list in reusable
// scratch, valid only during the call.
type StepCosts struct {
	model    model.Config
	params   sim.Params
	simulate StepFunc
	points   []arch.DVFSPoint // the run's operating points, indexed by stepKey.point
	// bucket is the slot width (the run's CtxBucket), slots the row
	// length covering contexts 0..maxCtx, maxBatch the largest dense batch.
	bucket, slots, maxCtx, maxBatch int
	// gen stamps this run's entries; an entry with another stamp is stale.
	gen   uint32
	table [][2][][]costEntry   // [point][prefill, decode][batch][slot]
	spill map[stepKey]StepCost // shapes outside the dense bounds or sharing a slot
	ops   []model.Op           // operator scratch of the shape being priced
}

// NewStepCosts returns an empty table pricing passes of cfg, with cfg's
// zero-value defaults applied as a run applies them.
func NewStepCosts(cfg Config) *StepCosts {
	s := new(StepCosts)
	s.reset(cfg.withDefaults())
	return s
}

// reset empties the table for a run of the defaulted cfg, keeping its
// storage: a new generation stamp retires every entry at once.
func (s *StepCosts) reset(cfg Config) {
	s.model, s.params, s.simulate = cfg.Model, cfg.Params(), cfg.Simulate
	s.points = s.points[:0]
	s.bucket, s.maxBatch = max(cfg.CtxBucket, 1), cfg.MaxBatch
	s.slots = maxSlots + 1
	if n := cfg.Model.MaxSeq; n > 0 {
		s.slots = min(slotOf(n, s.bucket), maxSlots) + 1
	}
	s.maxCtx = (s.slots - 1) * s.bucket
	clear(s.spill)
	if s.gen++; s.gen == 0 {
		// The stamp wrapped: clear every entry so none can match again.
		for i := range s.table {
			for _, rows := range s.table[i] {
				for _, row := range rows {
					clear(row)
				}
			}
		}
		s.gen = 1
	}
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
	if e := s.slot(point, decode, batch, ctx); e != nil && e.gen == s.gen && e.ctx == ctx {
		return e.cost
	}
	return s.miss(point, decode, batch, ctx)
}

// slot returns the dense entry of a shape, or nil when the shape lies
// outside the dense bounds or its row is not allocated.
//
//mugi:noalloc
func (s *StepCosts) slot(point int32, decode bool, batch, ctx int) *costEntry {
	if batch < 1 || batch > s.maxBatch || ctx < 0 || ctx > s.maxCtx || int(point) >= len(s.table) {
		return nil
	}
	rows := s.table[point][phase(decode)]
	if batch >= len(rows) || len(rows[batch]) < s.slots {
		return nil
	}
	return &rows[batch][slotOf(ctx, s.bucket)]
}

// slotOf is ctx's context slot, ceil(ctx/bucket), for ctx >= 0.
func slotOf(ctx, bucket int) int {
	i := ctx / bucket
	if i*bucket < ctx {
		i++
	}
	return i
}

// phase indexes the table's prefill and decode halves.
func phase(decode bool) int {
	if decode {
		return 1
	}
	return 0
}

// miss serves a shape the dense table does not hold for this run: from
// the spill map, or by pricing it into its dense slot, or into the spill
// map when the shape is out of the dense bounds or its slot already
// holds another context this run.
func (s *StepCosts) miss(point int32, decode bool, batch, ctx int) StepCost {
	k := stepKey{batch: batch, ctx: ctx, point: point, decode: decode}
	if c, ok := s.spill[k]; ok {
		return c
	}
	c := s.price(k)
	s.grow(point, decode, batch)
	if e := s.slot(point, decode, batch, ctx); e != nil && e.gen != s.gen {
		*e = costEntry{cost: c, ctx: ctx, gen: s.gen}
		return c
	}
	if s.spill == nil {
		s.spill = make(map[stepKey]StepCost)
	}
	s.spill[k] = c
	return c
}

// grow allocates the full-length row of (point, phase, batch) if this
// run's shapes do not fit the one it has.
func (s *StepCosts) grow(point int32, decode bool, batch int) {
	if batch < 1 || batch > s.maxBatch {
		return
	}
	if n := int(point) + 1; n > len(s.table) {
		s.table = append(s.table, make([][2][][]costEntry, n-len(s.table))...)
	}
	rows := &s.table[point][phase(decode)]
	if batch >= len(*rows) {
		*rows = append(*rows, make([][]costEntry, batch+1-len(*rows))...)
	}
	if len((*rows)[batch]) < s.slots {
		(*rows)[batch] = make([]costEntry, s.slots)
	}
}

// price simulates a shape missing from the table.
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
	return StepCost{Seconds: res.Seconds, DynamicEnergy: res.DynamicEnergy, LeakageWatts: res.LeakageWatts, NoCLimited: res.NoCLimited}
}
