package serve

import (
	"fmt"
	"math"
	"sync"

	"mugi/internal/arch"
	"mugi/internal/faults"
	"mugi/internal/overload"
)

// reqState tracks one admitted request in the engine's arena.
type reqState struct {
	req         Request
	generated   int     // output tokens produced so far
	firstAt     float64 // completion time of the prefill (first token)
	deferred    bool    // already counted as a KV-budget deferral
	clientTries int     // client retry attempts already spent (overload)
}

// retryEntry schedules a failed dispatch for re-delivery at readyAt.
type retryEntry struct {
	idx     int32
	readyAt float64
}

// Batch is one replica's running decode batch: the arena indices of its
// resident requests and the KV bytes they reserve.
type Batch struct {
	active  []int32
	kvInUse int64
}

// Len is the number of resident requests.
func (b *Batch) Len() int { return len(b.active) }

// Engine is the continuous-batching core: a request arena, one admission
// queue, and one or more batches behind that queue. RunStream drives one
// batch; internal/autoscale's controller drives one batch per replica.
// Each batch advances through Round, the Orca-style iteration: admit
// queued requests while a slot and KV budget are free (one prefill pass
// each, which also yields the first token), then decode steps for the
// whole batch at its longest context. A round leaps over consecutive
// decode steps of one shape up to the caller's next event, a completion
// or a bucket edge, so a stretch of identical steps costs one table
// lookup; passing the round's start as that event keeps it to one step.
// Every step's energy lands in one accumulator in step order, so a run's
// totals are bit-identical however its steps are grouped into rounds and
// spread over batches. Step costs come from the engine's per-run
// StepCosts table, or from a caller's table that outlives the run
// (RunStreamStats), so each distinct shape and operating point is
// simulated once per run, or once per caller's table. Engines are
// pooled: a warmed steady-state round allocates nothing, and an engine
// keeps its latency histograms from run to run, emptied by span.
type Engine struct {
	cfg      Config
	perToken int64
	classed  bool // per-class accounting on
	// transient arms injected dispatch errors drawn from spec (RunStream
	// under Config.Faults), disposed of under retry.
	transient   bool
	spec        faults.Spec
	retry       RetryPolicy
	bucketScale int        // CtxBucket multiplier on the brownout ladder (1 off it)
	costs       *StepCosts // the run's step-cost table: own, or a caller's
	own         StepCosts  // the pooled per-run table

	rep      Report
	batchSum int
	leakage  float64 // the last step's static watts

	states  []reqState // arena; batches and the queue hold indices into it
	free    []int32    // freed arena slots for reuse
	queue   []int32    // FIFO of queued (arrived, unadmitted) requests
	qhead   int        // queue's consumed prefix
	batches []Batch
	retries []retryEntry // transient re-deliveries, in readyAt order
	rhead   int

	h *hists // the run's latency populations, kept across pooled runs
}

// hists are an engine's latency populations. They outlive a run: a
// pooled engine empties them by span (reset) rather than zeroing them,
// so a run's histogram work covers only the buckets its samples and the
// last run's occupy.
type hists struct {
	ttft, tpot, lat Hist
	cttft, clat     [overload.NumClasses]Hist // per class, on classed runs only
}

// reset empties every population by span.
//
//mugi:noalloc
func (h *hists) reset() {
	h.ttft.reset()
	h.tpot.reset()
	h.lat.reset()
	for c := range h.cttft {
		h.cttft[c].reset()
		h.clat[c].reset()
	}
}

var enginePool = sync.Pool{New: func() any { return &Engine{h: new(hists)} }}

// NewEngine validates cfg, applies its defaults and borrows a reset
// engine with the given number of empty batches and an empty step-cost
// table from the pool; Release returns it. Request validation (Validate)
// is the caller's, as requests are pulled.
func NewEngine(cfg Config, batches int) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	// Everything resets but the grown backing arrays and the latency
	// populations, which empty by span. Batches are resliced rather than
	// appended so those beyond the last run's count keep theirs too.
	e := enginePool.Get().(*Engine)
	states, free, queue, retries, bs, own, h := e.states[:0], e.free[:0], e.queue[:0], e.retries[:0], e.batches, e.own, e.h
	if cap(bs) < batches {
		bs = append(bs[:cap(bs)], make([]Batch, batches-cap(bs))...)
	}
	bs = bs[:batches]
	for i := range bs {
		bs[i] = Batch{active: bs[i].active[:0]}
	}
	*e = Engine{}
	e.cfg, e.perToken, e.retry, e.bucketScale = cfg, KVBytesPerToken(cfg.Model), cfg.Retry.withDefaults(), 1
	e.states, e.free, e.queue, e.retries, e.batches, e.own, e.h = states, free, queue, retries, bs, own, h
	e.own.reset(cfg)
	e.h.reset()
	e.costs = &e.own
	return e, nil
}

// useCosts prices the engine's steps through a caller's table instead of
// its own, after checking that the table was built for this run's
// configuration.
func (e *Engine) useCosts(s *StepCosts) error {
	if err := s.fits(e.cfg); err != nil {
		return err
	}
	e.costs = s
	return nil
}

// validate checks the defaulted configuration.
func (c Config) validate() error {
	if err := c.Model.Validate(); err != nil {
		return err
	}
	if c.MaxBatch < 1 {
		return fmt.Errorf("serve: max batch %d must be positive", c.MaxBatch)
	}
	if c.KVBudgetBytes < 1 {
		return fmt.Errorf("serve: KV budget %d bytes must be positive", c.KVBudgetBytes)
	}
	if c.CtxBucket < 1 {
		return fmt.Errorf("serve: context bucket %d must be positive", c.CtxBucket)
	}
	// The float checks are written !(x >= 0) so NaN fails them too; +Inf
	// passes (an infinite bandwidth is free memory, an infinite delay
	// never re-delivers).
	if !(c.Bandwidth >= 0) {
		return fmt.Errorf("serve: Bandwidth %g must be non-negative", c.Bandwidth)
	}
	if !(c.NoCBandwidth >= 0) {
		return fmt.Errorf("serve: NoCBandwidth %g must be non-negative", c.NoCBandwidth)
	}
	if c.MaxQueue < 0 {
		return fmt.Errorf("serve: max queue %d must be non-negative", c.MaxQueue)
	}
	if c.Retry.MaxRedispatch < 0 {
		return fmt.Errorf("serve: Retry.MaxRedispatch %d must be non-negative", c.Retry.MaxRedispatch)
	}
	if !(c.Retry.Delay >= 0) {
		return fmt.Errorf("serve: Retry.Delay %g must be non-negative", c.Retry.Delay)
	}
	if c.Admission != nil {
		if err := c.Admission.Validate(); err != nil {
			return err
		}
	}
	return c.ClientRetry.Validate()
}

// Release returns the engine to the pool; it must not be used after.
func (e *Engine) Release() {
	e.costs = nil // the pool keeps no caller's table alive
	enginePool.Put(e)
}

// Batch returns batch i.
func (e *Engine) Batch(i int) *Batch { return &e.batches[i] }

// Completed counts the requests served to their last token.
func (e *Engine) Completed() int { return e.rep.Completed }

// need is a request's full prompt+output KV reservation.
func (e *Engine) need(r Request) int64 { return e.perToken * int64(r.Prompt+r.Output) }

// Validate rejects a request no batch could ever serve.
func (e *Engine) Validate(r Request) error {
	if r.Prompt < 1 || r.Output < 1 {
		return fmt.Errorf("serve: request %d has empty prompt or output", r.ID)
	}
	// The deepest decode step attends over prompt+output-1 cached
	// tokens; a model can't serve a request past its context window.
	m := e.cfg.Model
	if m.MaxSeq > 0 && r.Prompt+r.Output-1 > m.MaxSeq {
		return fmt.Errorf("serve: request %d spans %d tokens, model %q holds %d — use a shorter length profile",
			r.ID, r.Prompt+r.Output, m.Name, m.MaxSeq)
	}
	if n := e.need(r); n > e.cfg.KVBudgetBytes {
		return fmt.Errorf("serve: request %d needs %d KV bytes, budget %d — it can never be scheduled",
			r.ID, n, e.cfg.KVBudgetBytes)
	}
	return nil
}

// Enqueue places a request at the tail of the admission queue.
func (e *Engine) Enqueue(r Request) {
	e.addTokens(r)
	e.qpush(e.alloc(r))
}

// Requeue empties b after a fail-stop crash: each resident request, in
// batch order, returns to the queue tail with its attempt counter
// advanced and its progress lost, or leaves the arena once it has spent
// budget re-dispatches. It returns how many were requeued and dropped.
func (e *Engine) Requeue(b *Batch, budget int) (requeued, dropped int) {
	for _, idx := range b.active {
		if e.states[idx].req.Retries >= budget {
			e.release(idx)
			dropped++
			continue
		}
		e.restart(idx)
		e.qpush(idx)
		requeued++
	}
	b.active = b.active[:0]
	b.kvInUse = 0
	return requeued, dropped
}

// Report returns the engine's accumulated counters: completions, steps,
// mean batch, token and energy totals, KV and queue marks, and the
// latency percentiles (overall and, on classed runs, per class). The
// run-level fields — identity, rates, makespan, leakage — are the
// caller's to fill in.
func (e *Engine) Report() Report {
	rep := e.rep
	if rep.DecodeSteps > 0 {
		rep.MeanBatch = float64(e.batchSum) / float64(rep.DecodeSteps)
	}
	h := e.h
	rep.TTFT, rep.TPOT, rep.Latency = h.ttft.Percentiles(), h.tpot.Percentiles(), h.lat.Percentiles()
	if e.classed {
		for i := range rep.Classes {
			rep.Classes[i].TTFT = h.cttft[i].Percentiles()
			rep.Classes[i].Latency = h.clat[i].Percentiles()
		}
	}
	return rep
}

// alloc places a request in the arena and returns its index (amortized
// arena growth via append is not a heap escape; steady state reuses the
// freelist).
//
//mugi:noalloc
func (e *Engine) alloc(r Request) int32 {
	if n := len(e.free); n > 0 {
		idx := e.free[n-1]
		e.free = e.free[:n-1]
		e.states[idx] = reqState{req: r}
		return idx
	}
	e.states = append(e.states, reqState{req: r})
	return int32(len(e.states) - 1)
}

// release returns an arena slot to the freelist.
func (e *Engine) release(idx int32) { e.free = append(e.free, idx) }

// QueueLen is the current admission-queue depth.
func (e *Engine) QueueLen() int { return len(e.queue) - e.qhead }

// qpush/qpop/qpeek implement the FIFO over the reusable backing slice.
// The consumed prefix is reclaimed whenever it dominates the slice (not
// just when the queue drains), so the backing array stays O(backlog) even
// on sustained-overload streams whose queue never empties — amortized
// O(1) per operation.
//
//mugi:noalloc
func (e *Engine) qpush(idx int32) {
	if e.qhead == len(e.queue) {
		e.queue = e.queue[:0]
		e.qhead = 0
	} else if e.qhead > 32 && e.qhead > len(e.queue)/2 {
		n := copy(e.queue, e.queue[e.qhead:])
		e.queue = e.queue[:n]
		e.qhead = 0
	}
	e.queue = append(e.queue, idx)
}

func (e *Engine) qpeek() int32 { return e.queue[e.qhead] }

func (e *Engine) qpop() int32 {
	idx := e.queue[e.qhead]
	e.qhead++
	return idx
}

// qpushPri inserts idx keeping the queue ordered by class priority,
// stable within a class (FIFO among equals). Overload mode only:
// strict-priority dispatch is what makes an evicted slot worth anything
// to the class that claimed it — eviction frees space, this hands the
// freed space to the front of the line.
//
//mugi:noalloc
func (e *Engine) qpushPri(idx int32) {
	e.qpush(idx)
	p := e.states[idx].req.Class.Priority()
	for i := len(e.queue) - 1; i > e.qhead; i-- {
		if e.states[e.queue[i-1]].req.Class.Priority() <= p {
			break
		}
		e.queue[i], e.queue[i-1] = e.queue[i-1], e.queue[i]
	}
}

// lowerQueued reports whether some queued request ranks strictly below
// class c — an eviction victim exists.
func (e *Engine) lowerQueued(c overload.Class) bool {
	p := c.Priority()
	for _, idx := range e.queue[e.qhead:] {
		if e.states[idx].req.Class.Priority() > p {
			return true
		}
	}
	return false
}

// evictVictim removes and returns the arena index of the youngest
// queued request with the lowest priority strictly below class c, or -1
// when no victim exists. "Youngest lowest-priority first" sacrifices the
// least-invested, least-important work.
func (e *Engine) evictVictim(c overload.Class) int32 {
	p := c.Priority()
	best, bestP := -1, p
	for i := len(e.queue) - 1; i >= e.qhead; i-- {
		if q := e.states[e.queue[i]].req.Class.Priority(); q > bestP {
			best, bestP = i, q
		}
	}
	if best < 0 {
		return -1
	}
	idx := e.queue[best]
	copy(e.queue[best:], e.queue[best+1:])
	e.queue = e.queue[:len(e.queue)-1]
	return idx
}

// redispatch schedules a failed attempt's re-delivery at readyAt with
// its attempt counter advanced and its progress lost. Entries stay in
// readyAt order by insertion (failures are rare events; the linear shift
// is bounded by the pending-retry count).
func (e *Engine) redispatch(idx int32, readyAt float64) {
	e.restart(idx)
	e.rep.Redispatched++
	e.retries = append(e.retries, retryEntry{idx: idx, readyAt: readyAt})
	for i := len(e.retries) - 1; i > e.rhead && e.retries[i].readyAt < e.retries[i-1].readyAt; i-- {
		e.retries[i], e.retries[i-1] = e.retries[i-1], e.retries[i]
	}
}

// restart advances a failed attempt's counter and drops its progress.
func (e *Engine) restart(idx int32) {
	req := e.states[idx].req
	req.Retries++
	e.states[idx] = reqState{req: req}
}

// addTokens/discard keep the token totals (overall and per class)
// counting only work the run actually delivers (or will deliver after a
// transient retry): orphans and sheds return theirs.
func (e *Engine) addTokens(r Request) { e.countTokens(r, 1) }
func (e *Engine) discard(r Request)   { e.countTokens(r, -1) }

func (e *Engine) countTokens(r Request, sign int64) {
	p, o := sign*int64(r.Prompt), sign*int64(r.Output)
	e.rep.PromptTokens += p
	e.rep.OutputTokens += o
	if e.classed {
		e.rep.Classes[r.Class].PromptTokens += p
		e.rep.Classes[r.Class].OutputTokens += o
	}
}

// shed counts a request dropped with accounting.
func (e *Engine) shed(r Request) {
	e.rep.Shed++
	if e.classed {
		e.rep.Classes[r.Class].Shed++
	}
}

// bucket quantizes a step shape like Config.BucketCtx, through the
// brownout ladder's live bucket scale (bit-identical at scale 1).
func (e *Engine) bucket(n int) int {
	return bucketCtx(n, e.cfg.CtxBucket*e.bucketScale, e.cfg.Model.MaxSeq)
}

// Round runs one scheduling round of b from time t and returns the time
// it ends. With admit set, queued requests are prefilled while b has a
// batch slot and KV budget free. Then the round leaps: it runs decode
// steps for the whole batch, padded to its longest context, for as long
// as they share one shape and nothing can happen between them. The leap
// stops after the step at which a resident request reaches its last
// token, before the longest context crosses its CtxBucket edge, and
// after the first step that ends at or after until or at or after a
// transient re-delivery comes due (one that this round's own admission
// scheduled included). The first step always runs, so until = t is
// exactly one decode step. The caller passes its next event as until:
// an arrival, a crash, anything that could change the queue or the
// batch between steps. Steps are priced at the operating point, once
// per leap, and stretched by slow (1 on a healthy replica: ×1.0 is
// bit-exact). Time and energy still advance step by step in order, so a
// leap's bytes equal its steps run one round each. A step whose cost is
// negative or not finite aborts the round with an error.
//
//mugi:noalloc
func (e *Engine) Round(b *Batch, t float64, point arch.DVFSPoint, slow float64, admit bool, until float64) (float64, error) {
	var err error
	p := e.costs.point(point)
	for admit && e.QueueLen() > 0 && len(b.active) < e.cfg.MaxBatch {
		r := &e.states[e.qpeek()]
		if e.transient && e.spec.Transient(r.req.ID, r.req.Retries) {
			// Injected transient dispatch error: the attempt counter
			// advances (so the next draw is fresh) and re-delivery costs
			// the detection delay, or the request is shed once its budget
			// is spent.
			idx := e.qpop()
			e.rep.TransientErrors++
			if r.req.Retries >= e.retry.MaxRedispatch {
				e.shed(r.req)
				e.discard(r.req)
				e.release(idx)
				continue
			}
			e.redispatch(idx, t+e.retry.Delay)
			continue
		}
		need := e.need(r.req)
		if b.kvInUse+need > e.cfg.KVBudgetBytes {
			if !r.deferred {
				r.deferred = true
				e.rep.KVQueuedRequests++
			}
			break
		}
		idx := e.qpop()
		b.kvInUse += need
		if b.kvInUse > e.rep.PeakKVBytes {
			e.rep.PeakKVBytes = b.kvInUse
		}
		if t, _, err = e.steps(p, slow, t, false, 1, e.bucket(r.req.Prompt), 1, t); err != nil {
			return t, err
		}
		e.rep.PrefillSteps++
		r.firstAt, r.generated = t, 1
		if r.generated == r.req.Output {
			e.complete(b, r, t)
			e.release(idx)
		} else {
			b.active = append(b.active, idx)
		}
	}
	if len(b.active) == 0 {
		return t, nil
	}
	if e.rhead < len(e.retries) && e.retries[e.rhead].readyAt < until {
		until = e.retries[e.rhead].readyAt
	}
	// Every step adds one token to every resident request, so the
	// longest context stays the longest and the shortest remainder
	// finishes first.
	maxCtx, left := 0, math.MaxInt
	for _, idx := range b.active {
		r := &e.states[idx]
		if ctx := r.req.Prompt + r.generated; ctx > maxCtx {
			maxCtx = ctx
		}
		left = min(left, r.req.Output-r.generated)
	}
	ctx := e.bucket(maxCtx)
	n := max(min(left, ctx-maxCtx+1), 1)
	if t, n, err = e.steps(p, slow, t, true, len(b.active), ctx, n, until); err != nil {
		return t, err
	}
	e.rep.DecodeSteps += n
	e.batchSum += n * len(b.active)
	remaining := b.active[:0]
	for _, idx := range b.active {
		r := &e.states[idx]
		r.generated += n
		if r.generated >= r.req.Output {
			e.complete(b, r, t)
			e.release(idx)
		} else {
			remaining = append(remaining, idx)
		}
	}
	b.active = remaining
	return t, nil
}

// steps runs up to n passes of one shape at operating point p (an index
// among the run's points) from t, stopping after the first that ends at
// or after until, and returns when the last ends and how many ran. The
// cost is looked up and checked once; time and energy accumulate one
// pass at a time.
//
//mugi:noalloc
func (e *Engine) steps(p int32, slow, t float64, decode bool, batch, ctx, n int, until float64) (float64, int, error) {
	res := e.costs.cost(p, decode, batch, ctx)
	if !finiteCost(res.Seconds) || !finiteCost(res.DynamicEnergy) {
		return t, 0, badStepError(decode, batch, ctx, res)
	}
	energy, ran := e.rep.DynamicEnergy, 0
	for ran < n {
		t += res.Seconds * slow
		energy += res.DynamicEnergy
		ran++
		if t >= until {
			break
		}
	}
	e.rep.DynamicEnergy = energy
	e.leakage = res.LeakageWatts
	if res.NoCLimited {
		e.rep.NoCLimitedSteps += ran
	}
	return t, ran, nil
}

// finiteCost reports whether a step cost is finite and non-negative.
func finiteCost(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// badStepError names the step shape whose simulated cost is unusable.
func badStepError(decode bool, batch, ctx int, res StepCost) error {
	kind := "prefill"
	if decode {
		kind = "decode"
	}
	return fmt.Errorf("serve: %s step (batch %d, context %d) costs %g s and %g J; step costs must be finite and non-negative",
		kind, batch, ctx, res.Seconds, res.DynamicEnergy)
}

// complete retires a request that produced its last token at now.
func (e *Engine) complete(b *Batch, r *reqState, now float64) {
	b.kvInUse -= e.need(r.req)
	h := e.h
	h.lat.Add(now - r.req.Arrival)
	h.ttft.Add(r.firstAt - r.req.Arrival)
	if r.req.Output > 1 {
		h.tpot.Add((now - r.firstAt) / float64(r.req.Output-1))
	}
	if e.cfg.Observe != nil {
		e.cfg.Observe(r.req, r.firstAt, now)
	}
	e.rep.Completed++
	if e.classed {
		e.rep.Classes[r.req.Class].Completed++
		h.cttft[r.req.Class].Add(r.firstAt - r.req.Arrival)
		h.clat[r.req.Class].Add(now - r.req.Arrival)
	}
}
