package serve

import (
	"fmt"
	"math"
	"strings"

	"mugi/internal/arch"
	"mugi/internal/faults"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/runner"
	"mugi/internal/sim"
)

// DefaultMaxBatch caps the number of requests decoding concurrently.
const DefaultMaxBatch = 32

// DefaultKVBudgetBytes is the default KV-cache capacity (8 GiB of the HBM
// stack), the budget that forces queueing when resident contexts outgrow
// memory.
const DefaultKVBudgetBytes int64 = 8 << 30

// DefaultCtxBucket is the default step-shape quantum: decode contexts and
// prefill lengths are rounded up to the next multiple before pricing, the
// way paged-KV serving systems round resident contexts up to block
// boundaries. Quantization bounds the number of distinct simulated step
// shapes a trace of any length can produce — a million-request run prices
// O(MaxBatch × MaxSeq/CtxBucket) shapes, not O(requests) — at the cost of
// a ≤ (CtxBucket-1)-token conservative overestimate per step.
const DefaultCtxBucket = 32

// Failure-handling defaults.
const (
	// DefaultMaxRedispatch bounds how many times one request may be
	// re-dispatched after a failure (crash orphaning or transient error)
	// before it is shed with accounting.
	DefaultMaxRedispatch = 2
	// DefaultRetryDelay is the failure-detection plus re-dispatch latency
	// in seconds; attempt k is re-delivered k*Delay after its failure, a
	// deterministic linear backoff.
	DefaultRetryDelay = 5.0
)

// RetryPolicy shapes how a faulty run disposes of interrupted work. The
// zero value means the defaults; it is read only under fault injection
// (Config.Faults), by crash disposal and transient dispatch errors.
// Bounded-queue shedding (Config.MaxQueue) never retries.
type RetryPolicy struct {
	// MaxRedispatch bounds re-dispatch attempts per request beyond its
	// first dispatch (default DefaultMaxRedispatch). Work interrupted
	// past the budget is shed — counted, never silently dropped.
	MaxRedispatch int
	// Delay is the failure-detection + re-dispatch latency in seconds
	// (default DefaultRetryDelay); attempt k is re-delivered k*Delay
	// after the failure.
	Delay float64
	// HandOff, when true, returns crash-orphaned requests to the caller
	// in RunStats.Orphans instead of retrying them locally after repair —
	// the fleet router's failover mode, where another replica takes the
	// work. Transient dispatch errors always retry locally.
	HandOff bool
}

// withDefaults materializes the zero-value defaults.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxRedispatch == 0 {
		p.MaxRedispatch = DefaultMaxRedispatch
	}
	if p.Delay == 0 {
		p.Delay = DefaultRetryDelay
	}
	return p
}

// StepFunc computes one pass cost. It must be pure: a run calls it once
// per distinct step shape and operating point (StepCosts) and reuses the
// result for every later step of that shape, so a StepFunc that counts or
// varies its answers sees one call per shape, not one per step. The
// workload's operator list is scratch the run reuses, valid only during
// the call. The default is runner.Simulate, one counted sim.Simulate
// pass that allocates nothing; injecting sim.Simulate directly skips
// the count.
type StepFunc func(sim.Params, model.Workload) sim.Result

// Config bundles the serving-simulation inputs.
type Config struct {
	// Model is the served checkpoint (its PrefillOps/DecodeOps price every
	// step).
	Model model.Config
	// Design and Mesh select the hardware, as in sim.Params.
	Design arch.Design
	Mesh   noc.Mesh
	// MaxBatch caps concurrent decode requests (default DefaultMaxBatch).
	MaxBatch int
	// KVBudgetBytes caps resident KV-cache bytes across running requests
	// (default DefaultKVBudgetBytes). Admission reserves a request's full
	// prompt+output footprint so no running request is ever evicted.
	KVBudgetBytes int64
	// CtxBucket quantizes simulated step shapes: decode contexts and
	// prefill lengths round up to the next multiple before pricing
	// (default DefaultCtxBucket; 1 disables quantization).
	CtxBucket int
	// Bandwidth is the off-chip bandwidth passed to the simulator (0 =
	// sim.HBMBandwidth).
	Bandwidth float64
	// NoCBandwidth is the aggregate NoC bandwidth passed to the simulator
	// (0 = the mesh's provisioned default).
	NoCBandwidth float64
	// DVFS is the replica's voltage–frequency operating point, passed
	// through to sim.Params (zero value: nominal full speed). Slowing the
	// clock stretches compute-bound steps by 1/f while cheapening every
	// on-chip op by v² — the autoscaler's latency-for-joules trade.
	DVFS arch.DVFSPoint
	// Simulate computes step costs (default runner.Simulate; see
	// StepFunc).
	Simulate StepFunc
	// Observe, when non-nil, is called once per completed request with its
	// first-token and completion times (absolute simulated seconds; the
	// request carries its arrival). internal/fleet and internal/autoscale
	// feed windowed SLO accounting (Windows) through this without the
	// scheduler knowing about windows. Calls happen inline in the
	// scheduler loop in completion order.
	Observe func(r Request, firstAt, doneAt float64)
	// Faults, when non-nil and active, is this replica's injected fault
	// schedule (internal/faults): fail-stop crash intervals orphan every
	// resident request at the first scheduler boundary at or after the
	// crash instant, and the straggler slowdown multiplies every step's
	// latency. A schedule drawn from a zero-rate Spec injects nothing and
	// leaves the run byte-identical to Faults == nil.
	Faults *faults.Schedule
	// Retry shapes failure disposal (re-dispatch bounds, detection delay,
	// local-retry vs hand-off); read only under Faults.
	Retry RetryPolicy
	// MaxQueue bounds the admission queue: a fresh arrival that finds
	// MaxQueue requests already waiting is shed with accounting instead
	// of queued — graceful degradation under overload, with queued work
	// keeping priority by age over new arrivals. 0 means unbounded.
	MaxQueue int
	// Admission, when non-nil, replaces blind MaxQueue shedding with the
	// deterministic admission controller: per-class token buckets plus
	// strict-priority eviction — an interactive arrival at a full queue
	// is admitted by evicting the youngest queued best-effort request,
	// never the reverse. The queue bound itself stays MaxQueue.
	Admission *overload.AdmissionSpec
	// Brownout, when non-nil, arms the degradation ladder: under
	// sustained queue pressure the scheduler caps best-effort output,
	// coarsens CtxBucket quantization and downshifts DVFS one rung at a
	// time, recovering with hysteresis. A zero-HighWater spec normalizes
	// pressure by MaxQueue (or 4*MaxBatch when the queue is unbounded).
	Brownout *overload.BrownoutSpec
	// ClientRetry, when enabled, models client behavior after an
	// admission shed: the request re-arrives after a linear backoff and
	// repeats the admission decision, up to MaxAttempts — the feedback
	// loop that lets a retrystorm trace exhibit metastable failure. The
	// zero value keeps sheds final.
	ClientRetry overload.ClientRetrySpec

	// oneStep runs every round as one decode step (until = its start):
	// the reference the differential test holds leaping rounds to.
	oneStep bool
}

// withDefaults materializes the zero-value defaults.
func (c Config) withDefaults() Config {
	if c.MaxBatch == 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	if c.KVBudgetBytes == 0 {
		c.KVBudgetBytes = DefaultKVBudgetBytes
	}
	if c.CtxBucket == 0 {
		c.CtxBucket = DefaultCtxBucket
	}
	if c.Mesh.Nodes() == 0 {
		c.Mesh = noc.Single
	}
	if c.Simulate == nil {
		c.Simulate = runner.Simulate
	}
	return c
}

// OverloadOn reports whether the admission controller, the brownout
// ladder or client retries are armed.
func (c Config) OverloadOn() bool {
	return c.Admission != nil || c.Brownout != nil || c.ClientRetry.Enabled()
}

// Params is the simulator input of one step on this configuration.
func (c Config) Params() sim.Params {
	return sim.Params{Design: c.Design, Mesh: c.Mesh, Bandwidth: c.Bandwidth, NoCBandwidth: c.NoCBandwidth, DVFS: c.DVFS}
}

// BucketCtx rounds a token count up to the CtxBucket boundary, clamped to
// the model's context window (the validation invariant guarantees no
// request exceeds it). A zero CtxBucket (an un-defaulted Config) leaves n
// unrounded; callers outside the scheduler (internal/fleet's demand
// estimator) should default CtxBucket first so their step shapes land on
// the same quantized grid the scheduler prices.
func (c Config) BucketCtx(n int) int { return bucketCtx(n, c.CtxBucket, c.Model.MaxSeq) }

// bucketCtx rounds n up to a multiple of b (b ≤ 1: unrounded), clamped
// to maxSeq when the model sets one.
func bucketCtx(n, b, maxSeq int) int {
	if b > 1 {
		n = (n + b - 1) / b * b
	}
	if maxSeq > 0 && n > maxSeq {
		n = maxSeq
	}
	return n
}

// KVBytesPerToken is the per-token KV-cache footprint of one request under
// KVQ INT4: 4-bit K and V codes plus one float16 scale per head, per
// layer — the same accounting as infer.KVCache.Bytes, lifted to a
// model.Config so the scheduler can budget capacity without materializing
// a cache.
func KVBytesPerToken(m model.Config) int64 {
	codes := int64(2*m.KVDim()) / 2 // K and V at 4 bits
	scales := int64(2*m.KVHeads) * 2
	return (codes + scales) * int64(m.Layers)
}

// Percentiles summarizes one latency population (seconds). Count is the
// population size; a zero Count marks an empty population (rendered as
// n/a, not 0.000 — single-output-token traces have no TPOT samples).
type Percentiles struct {
	Mean, P50, P95, P99, Max float64
	Count                    int64
}

// Report is one serving simulation: the request-level metrics of a
// continuous-batching deployment.
type Report struct {
	// Model, Design, Mesh, Trace identify the scenario.
	Model  string
	Design string
	Mesh   string
	Trace  TraceInfo

	// Requests/Completed count the trace and its completions. On a
	// fault-free, unbounded-queue run they are equal on return (the
	// scheduler drains the queue); under fault injection the accounting
	// invariant is Completed + Shed + Orphaned == Requests — every
	// arrival is served, shed with accounting, or handed off, never
	// silently dropped.
	Requests, Completed int
	// OfferedRate is the trace's realized arrival rate (req/s);
	// SustainedRate is completions over the makespan. Sustained < offered
	// means the configuration cannot keep up and the queue grew.
	OfferedRate, SustainedRate float64
	// Makespan is the simulated time from first arrival to last
	// completion, in seconds.
	Makespan float64
	// PromptTokens/OutputTokens total the processed tokens;
	// TokensPerSecond is generated tokens over the makespan.
	PromptTokens, OutputTokens int64
	TokensPerSecond            float64

	// TTFT is time from arrival to first output token (queue wait +
	// prefill); TPOT is the steady-state seconds per output token after
	// the first; Latency is arrival to final token. Percentiles resolve on
	// the fixed log-bucket histogram grid (O(buckets) memory at any trace
	// length); Mean and Max are exact.
	TTFT, TPOT, Latency Percentiles

	// PrefillSteps/DecodeSteps count scheduler iterations; MeanBatch is
	// the average decode batch occupancy.
	PrefillSteps, DecodeSteps int
	MeanBatch                 float64
	// PeakKVBytes and PeakQueue are the scheduler's high-water marks;
	// KVQueuedRequests counts admissions deferred by the KV budget with a
	// batch slot free.
	PeakKVBytes      int64
	PeakQueue        int
	KVQueuedRequests int

	// DynamicEnergy sums per-step dynamic energy; TotalEnergy adds
	// leakage over the makespan. JoulesPerRequest is TotalEnergy per
	// completion.
	DynamicEnergy, TotalEnergy float64
	JoulesPerRequest           float64
	// NoCLimitedSteps counts steps throttled by the configured NoC
	// bandwidth (see sim.Result.NoCLimited).
	NoCLimitedSteps int

	// FaultsOn marks a run with active fault injection or bounded-queue
	// shedding. The availability section below (and its lines in String)
	// exists only then, so fault-free reports stay byte-identical to
	// earlier releases.
	FaultsOn bool
	// Crashes counts fail-stop crash events the run lived through;
	// DowntimeSeconds sums their scheduled repair spans; Slowdown is the
	// replica's chronic straggler multiplier (1 when healthy).
	Crashes         int
	DowntimeSeconds float64
	Slowdown        float64
	// Orphaned counts requests interrupted by a crash and handed back to
	// the caller for failover (RetryPolicy.HandOff); Redispatched counts
	// re-deliveries this run absorbed (local crash retries plus transient
	// retries); TransientErrors counts injected dispatch failures.
	Orphaned, Redispatched, TransientErrors int
	// Shed counts requests dropped with accounting — arrivals refused at
	// a full bounded queue (ShedOverload) plus work whose re-dispatch
	// budget ran out.
	Shed, ShedOverload int
	// Availability is Completed/Requests; Nines is -log10(1-A) (see
	// faults.Nines). Hand-off orphans are excluded from the denominator —
	// their fate is decided by the fleet, which recomputes availability
	// over the merged report.
	Availability, Nines float64

	// OverloadOn marks a run with the admission controller, brownout
	// ladder or client retries armed; the overload summary line exists
	// only then, so pre-overload reports stay byte-identical.
	OverloadOn bool
	// Evicted counts queued requests displaced by a higher-priority
	// arrival; Degraded counts best-effort requests whose output the
	// brownout ladder truncated; ClientRetries counts shed requests that
	// re-arrived after client backoff.
	Evicted, Degraded, ClientRetries int
	// BrownoutMaxLevel is the deepest ladder rung reached;
	// BrownoutSeconds is simulated time spent at any rung above nominal.
	BrownoutMaxLevel int
	BrownoutSeconds  float64

	// TenantsOn marks a run with per-class accounting (a tenant-tagged
	// trace or an armed overload controller); the per-class section
	// exists only then. The accounting invariant holds per class:
	// Completed + Shed + Orphaned == Requests within every class.
	TenantsOn bool
	// Classes holds the per-class accounting, indexed by overload.Class.
	Classes [overload.NumClasses]ClassStats
}

// Settle derives the report's rates, energy totals and availability from
// its counters and the run's envelope: arrivals from firstArrival to
// lastArrival, the last completion at end, and leakEnergy joules of
// static power. Hand-off orphans leave the availability denominator:
// their fate is decided by the fleet router, which settles the merged
// fleet report the same way.
func (r *Report) Settle(firstArrival, lastArrival, end, leakEnergy float64) {
	if lastArrival > 0 {
		r.OfferedRate = float64(r.Requests) / lastArrival
	}
	r.Makespan = end - firstArrival
	if r.Makespan > 0 {
		r.SustainedRate = float64(r.Completed) / r.Makespan
		r.TokensPerSecond = float64(r.OutputTokens) / r.Makespan
	}
	r.TotalEnergy = r.DynamicEnergy + leakEnergy
	if r.Completed > 0 {
		r.JoulesPerRequest = r.TotalEnergy / float64(r.Completed)
	}
	if r.FaultsOn {
		if n := r.Requests - r.Orphaned; n > 0 {
			r.Availability = float64(r.Completed) / float64(n)
		}
		r.Nines = faults.Nines(r.Availability)
	}
}

// Holds reports whether a probe run kept up — sustained at least goodput
// of its offered rate — and held each positive p99 bound (seconds): the
// pass criterion of the capacity search (internal/fleet's Plan).
func (r Report) Holds(goodput, ttftP99, latencyP99 float64) bool {
	return r.SustainedRate >= goodput*r.OfferedRate &&
		!(ttftP99 > 0 && r.TTFT.P99 > ttftP99) &&
		!(latencyP99 > 0 && r.Latency.P99 > latencyP99)
}

// ClassStats is one priority class's slice of a report.
type ClassStats struct {
	// Requests counts the class's arrivals; the invariant
	// Completed + Shed + Orphaned == Requests holds within the class.
	Requests, Completed, Shed, Orphaned int
	// Evicted and Degraded count the class's displaced and truncated
	// requests (informational: an evicted request still terminates as
	// completed or shed).
	Evicted, Degraded int
	// PromptTokens/OutputTokens total the class's delivered tokens, the
	// work attribution the price-of-priority planner bills by.
	PromptTokens, OutputTokens int64
	// TTFT and Latency are the class's own latency populations.
	TTFT, Latency Percentiles
}

// String renders the report deterministically.
func (r Report) String() string {
	var b strings.Builder
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("serve: %s on %s mesh %s", r.Model, r.Design, r.Mesh)
	if r.Trace.Tenants != "" {
		p("trace: %s rate %.2f req/s seed %d lengths %s (%d requests)  tenants %s",
			r.Trace.Kind, r.Trace.Rate, r.Trace.Seed, r.Trace.Lengths, r.Requests, r.Trace.Tenants)
	} else {
		p("trace: %s rate %.2f req/s seed %d lengths %s (%d requests)",
			r.Trace.Kind, r.Trace.Rate, r.Trace.Seed, r.Trace.Lengths, r.Requests)
	}
	p("throughput: offered %.3f req/s  sustained %.3f req/s  %.1f tok/s out", r.OfferedRate, r.SustainedRate, r.TokensPerSecond)
	p("makespan: %.2f s  (%d prefill steps, %d decode steps, mean batch %.2f)",
		r.Makespan, r.PrefillSteps, r.DecodeSteps, r.MeanBatch)
	p("tokens: %d prompt  %d output", r.PromptTokens, r.OutputTokens)
	pp := func(name string, x Percentiles, scale float64, unit string) {
		if x.Count == 0 {
			p("%-8s n/a (no samples)", name)
			return
		}
		p("%-8s mean %8.3f  p50 %8.3f  p95 %8.3f  p99 %8.3f  max %8.3f  %s",
			name, x.Mean*scale, x.P50*scale, x.P95*scale, x.P99*scale, x.Max*scale, unit)
	}
	pp("TTFT", r.TTFT, 1e3, "ms")
	pp("TPOT", r.TPOT, 1e3, "ms/tok")
	pp("latency", r.Latency, 1, "s")
	p("kv: peak %.2f GiB  queue peak %d  kv-deferred admissions %d",
		float64(r.PeakKVBytes)/(1<<30), r.PeakQueue, r.KVQueuedRequests)
	p("energy: %.1f J dynamic  %.1f J total  %.2f J/request  (%d NoC-limited steps)",
		r.DynamicEnergy, r.TotalEnergy, r.JoulesPerRequest, r.NoCLimitedSteps)
	if r.FaultsOn {
		p("availability: %.4f%% (%s)  completed %d/%d",
			r.Availability*100, faults.NinesString(r.Availability), r.Completed, r.Requests)
		p("faults: %d crashes  %.1f s down  slowdown x%.2f  %d transient errors",
			r.Crashes, r.DowntimeSeconds, r.Slowdown, r.TransientErrors)
		p("accounting: %d redispatched  %d orphaned  %d shed (%d overload, %d retry budget)",
			r.Redispatched, r.Orphaned, r.Shed, r.ShedOverload, r.Shed-r.ShedOverload)
	}
	if r.OverloadOn {
		p("overload: brownout max level %d (%.1f s degraded)  %d evicted  %d degraded  %d client retries",
			r.BrownoutMaxLevel, r.BrownoutSeconds, r.Evicted, r.Degraded, r.ClientRetries)
	}
	if r.TenantsOn {
		p99 := func(x Percentiles) string {
			if x.Count == 0 {
				return "     n/a"
			}
			return fmt.Sprintf("%8.3f", x.P99)
		}
		for _, c := range overload.Classes() {
			cs := r.Classes[c]
			p("class %-11s %5d req  %5d done  %4d shed  %4d evicted  %4d degraded  ttft p99 %s s  lat p99 %s s",
				c, cs.Requests, cs.Completed, cs.Shed, cs.Evicted, cs.Degraded, p99(cs.TTFT), p99(cs.Latency))
		}
	}
	return b.String()
}

// Run drives the trace through the continuous-batching scheduler and
// returns the request-level report. It is RunStream over the
// materialized trace.
func Run(cfg Config, tr Trace) (Report, error) {
	return RunStream(cfg, tr.Stream())
}

// RunStats is one serving run with the mergeable raw state a fleet-level
// caller needs: the Report plus the three latency histograms (on the
// shared fixed grid, so per-replica populations Merge losslessly) and the
// absolute simulation-time envelope of the run. RunStream discards these;
// internal/fleet's router keeps them to assemble one fleet report whose
// percentiles are computed over every replica's samples, not averaged
// from per-replica summaries.
//
// Its nine histograms make a RunStats about 74 KB, so it is meant to be
// kept and refilled in place (RunStreamStats, Reset), where each reuse
// costs only the buckets its populations occupy, not copied by value.
type RunStats struct {
	// Report is the per-run report, identical to RunStream's.
	Report Report
	// TTFT, TPOT and Latency are the run's latency populations.
	TTFT, TPOT, Latency Hist
	// FirstArrival and End bound the run in absolute simulated seconds
	// (End is the last completion). Replicas of one fleet share a clock —
	// requests keep their original arrival times — so the fleet makespan
	// is max(End) - min(FirstArrival) across replicas.
	FirstArrival, End float64
	// LeakageWatts is the configuration's static power (the last observed
	// per-step leakage), so a fleet-level caller can integrate leakage
	// over whatever span its power model charges (internal/fleet charges
	// each replica's own busy span; internal/autoscale charges wall-clock
	// per power state).
	LeakageWatts float64
	// Orphans lists the requests a crash interrupted when
	// RetryPolicy.HandOff is set, in deterministic (crash-time, admission)
	// order, for the fleet router to re-dispatch. Empty otherwise.
	Orphans []Orphan
	// ClassTTFT/ClassLatency are the per-class latency populations,
	// populated only on tenant-accounted runs, so a fleet merge can
	// compute per-class percentiles over every replica's samples.
	ClassTTFT, ClassLatency [overload.NumClasses]Hist
}

// Reset empties s for reuse: every field zero, each histogram emptied
// by span, so a buffer kept across runs pays for the buckets its last
// run occupied rather than for the whole grid nine times.
//
//mugi:noalloc
func (s *RunStats) Reset() {
	s.Report = Report{}
	s.TTFT.reset()
	s.TPOT.reset()
	s.Latency.reset()
	s.FirstArrival, s.End, s.LeakageWatts, s.Orphans = 0, 0, 0, nil
	for c := range s.ClassTTFT {
		s.ClassTTFT[c].reset()
		s.ClassLatency[c].reset()
	}
}

// Orphan is one request a fail-stop crash interrupted on a hand-off
// replica: the router's failover unit of work.
type Orphan struct {
	// Req is the interrupted request as last dispatched (Req.Retries
	// counts its failed attempts so far; the router increments it when
	// re-dispatching).
	Req Request
	// At is the crash instant in absolute simulated seconds; a failover
	// re-delivery arrives RetryPolicy.Delay-scaled after it.
	At float64
}

// RunStream drives a request stream through the continuous-batching
// scheduler and returns the request-level report. Because requests are
// pulled lazily and metrics accumulate into fixed-size histograms, memory
// is O(backlog + histogram buckets), never O(trace length) — a
// million-request stream runs in constant report memory.
//
// The scheduler is iteration-level (Orca-style): each round admits
// arrivals, prefills queued requests while a batch slot and KV budget are
// free (one prefill pass per request, which also yields its first output
// token), then runs one decode step for the whole running batch at the
// longest resident context (padded batching). Completed requests free
// their KV reservation immediately. Requests are validated as they are
// pulled from the stream; an invalid request aborts the run with a zero
// Report.
func RunStream(cfg Config, src Stream) (Report, error) {
	var st RunStats
	err := RunStreamStats(cfg, src, nil, &st)
	return st.Report, err
}

// RunStreamStats is RunStream filling in the full RunStats: one engine
// batch behind the admission queue, plus the serving-side concerns the
// engine leaves to its caller — arrival pulls, overload admission and
// brownout, client retries, and crash disposal.
//
// The run fills *out in place, replacing whatever it held: a caller
// that keeps one RunStats per replica across runs, as a capacity
// search's probes do, pays for the histogram buckets the runs occupy,
// not for copying nine whole grids. On an error *out is left empty.
//
// Steps are priced through costs, a table the caller keeps across runs
// (NewStepCosts), so a run prices only the shapes earlier runs on the
// table have not: the probes of one capacity search share one. The
// table must have been built for cfg's defaulted Model, simulator
// parameters, CtxBucket and MaxBatch, or the run fails before it prices
// anything; it prices with the StepFunc it was built with. A nil costs
// prices through the engine's own table, which no other run reads.
func RunStreamStats(cfg Config, src Stream, costs *StepCosts, out *RunStats) error {
	out.Reset()
	e, err := NewEngine(cfg, 1)
	if err != nil {
		return err
	}
	defer e.Release()
	cfg = e.cfg
	if costs != nil {
		if err := e.useCosts(costs); err != nil {
			return err
		}
	}
	total := src.Len()
	if total == 0 {
		return fmt.Errorf("serve: empty trace")
	}
	clientRetry := cfg.ClientRetry.WithDefaults()
	var (
		bo     *overload.Brownout
		boSpec overload.BrownoutSpec
	)
	if cfg.Brownout != nil {
		boSpec = cfg.Brownout.WithDefaults()
		if boSpec.HighWater == 0 {
			if cfg.MaxQueue > 0 {
				boSpec.HighWater = cfg.MaxQueue
			} else {
				boSpec.HighWater = 4 * cfg.MaxBatch
			}
		}
		if err := boSpec.Validate(); err != nil {
			return err
		}
		bo = overload.NewBrownout(boSpec)
	}
	// overloadOn arms the unified admission path; classed additionally
	// turns on per-class accounting. Both off is the pre-overload code
	// path, byte-identical to earlier releases.
	overloadOn := cfg.OverloadOn()
	var adm *overload.Admission
	if overloadOn {
		var aspec overload.AdmissionSpec
		if cfg.Admission != nil {
			aspec = *cfg.Admission
		}
		adm = overload.NewAdmission(aspec)
	}
	point := cfg.DVFS

	rep := &e.rep
	rep.Model, rep.Design, rep.Mesh = cfg.Model.Name, cfg.Design.Name, cfg.Mesh.String()
	rep.Trace, rep.Requests = src.Info(), total

	// Fault state: the schedule's nil-safe accessors make the fault-free
	// path identical to before, and a zero-rate schedule is inert too
	// (Active is false), so zero-fault injection reproduces the existing
	// goldens byte for byte.
	faulty := cfg.Faults.Active()
	slowdown := 1.0
	if faulty {
		e.transient, e.spec = true, cfg.Faults.Spec()
		slowdown = cfg.Faults.Slowdown()
	}
	rep.FaultsOn = faulty || cfg.MaxQueue > 0 || overloadOn
	rep.OverloadOn = overloadOn
	classed := rep.Trace.Tenants != "" || overloadOn
	e.classed, rep.TenantsOn = classed, classed
	rep.Slowdown = slowdown
	curDown, haveDown := cfg.Faults.DownAfter(0)
	var orphans []Orphan
	b := e.Batch(0)

	// One-request lookahead over the stream.
	pending, havePending := src.Next()
	if havePending {
		if err := e.Validate(pending); err != nil {
			return err
		}
	}
	var (
		firstArrival = pending.Arrival
		lastArrival  float64
		now          float64
		lastObserve  float64
	)

	// clientEntry schedules a shed request's client-side re-arrival, kept
	// in readyAt order by insertion like the engine's retry queue.
	type clientEntry struct {
		req      Request
		attempts int
		readyAt  float64
	}
	var (
		clientQ []clientEntry
		chead   int
	)
	pushClient := func(r Request, attempts int, readyAt float64) {
		clientQ = append(clientQ, clientEntry{req: r, attempts: attempts, readyAt: readyAt})
		for i := len(clientQ) - 1; i > chead && clientQ[i].readyAt < clientQ[i-1].readyAt; i-- {
			clientQ[i], clientQ[i-1] = clientQ[i-1], clientQ[i]
		}
	}

	// shedArrival disposes one arrival refused by admission, offering it
	// back to the client first when retries are modeled.
	shedArrival := func(r Request, t float64, attempts int) {
		if clientRetry.Enabled() && attempts < clientRetry.MaxAttempts {
			rep.ClientRetries++
			pushClient(r, attempts+1, t+clientRetry.Backoff*float64(attempts+1))
			return
		}
		rep.ShedOverload++
		e.shed(r)
	}
	// enqueue admits one arrival to the priority queue.
	enqueue := func(r Request, attempts int) {
		e.addTokens(r)
		idx := e.alloc(r)
		e.states[idx].clientTries = attempts
		e.qpushPri(idx)
	}
	// admitArrival runs the overload admission path for one arrival
	// event (a fresh pull at its arrival time, or a client re-arrival at
	// its backoff expiry).
	admitArrival := func(r Request, t float64, attempts int) {
		full := cfg.MaxQueue > 0 && e.QueueLen() >= cfg.MaxQueue
		lower := false
		if cfg.Admission != nil && full {
			lower = e.lowerQueued(r.Class)
		}
		beCap := 0
		if bo != nil {
			beCap = bo.Step().BestEffortCap
		}
		switch adm.Decide(t, r.Class, full, lower, beCap > 0) {
		case overload.Evict:
			vidx := e.evictVictim(r.Class)
			victim := e.states[vidx].req
			vtries := e.states[vidx].clientTries
			e.discard(victim)
			rep.Evicted++
			if classed {
				rep.Classes[victim.Class].Evicted++
			}
			e.release(vidx)
			shedArrival(victim, t, vtries)
			enqueue(r, attempts)
		case overload.Admit:
			enqueue(r, attempts)
		case overload.Degrade:
			if r.Output > beCap {
				r.Output = beCap
				rep.Degraded++
				if classed {
					rep.Classes[r.Class].Degraded++
				}
			}
			enqueue(r, attempts)
		case overload.Shed:
			shedArrival(r, t, attempts)
		default:
			panic("serve: unknown admission decision")
		}
	}
	pull := func() error {
		lastArrival = pending.Arrival
		if classed {
			rep.Classes[pending.Class].Requests++
		}
		switch {
		case overloadOn:
			admitArrival(pending, pending.Arrival, 0)
		case cfg.MaxQueue > 0 && e.QueueLen() >= cfg.MaxQueue:
			// Bounded-queue overload: the freshest arrival is shed with
			// accounting; already-queued work keeps priority by age.
			rep.ShedOverload++
			e.shed(pending)
		default:
			e.Enqueue(pending)
		}
		pending, havePending = src.Next()
		if havePending {
			return e.Validate(pending)
		}
		return nil
	}
	// crash loses every resident request at the first scheduler boundary
	// at or after the scheduled crash instant (a decode round in flight
	// completes — the loop is iteration-level — but all resident work is
	// lost). Each orphan is handed off to the caller, re-queued locally
	// for after the repair, or shed once its re-dispatch budget is gone.
	crash := func() {
		rep.Crashes++
		rep.DowntimeSeconds += curDown.Duration()
		orphanAt := math.Max(now, curDown.Start)
		lose := func(idx int32) {
			req := e.states[idx].req
			if !e.retry.HandOff && req.Retries < e.retry.MaxRedispatch {
				e.redispatch(idx, math.Max(orphanAt, curDown.End)+float64(req.Retries+1)*e.retry.Delay)
				return
			}
			if e.retry.HandOff {
				rep.Orphaned++
				if classed {
					rep.Classes[req.Class].Orphaned++
				}
				orphans = append(orphans, Orphan{Req: req, At: orphanAt})
			} else {
				e.shed(req)
			}
			e.discard(req)
			e.release(idx)
		}
		for _, idx := range b.active {
			lose(idx)
		}
		b.active = b.active[:0]
		b.kvInUse = 0
		for e.QueueLen() > 0 {
			lose(e.qpop())
		}
		if curDown.End > now {
			now = curDown.End
		}
		curDown, haveDown = cfg.Faults.DownAfter(curDown.End)
	}

	for rep.Completed+rep.Shed+rep.Orphaned < total {
		if haveDown && now >= curDown.Start {
			crash()
			continue
		}
		for havePending && pending.Arrival <= now {
			if err := pull(); err != nil {
				return err
			}
		}
		for e.rhead < len(e.retries) && e.retries[e.rhead].readyAt <= now {
			// Transient-retry re-entries respect priority order in
			// overload mode, like any other admission to the queue.
			if overloadOn {
				e.qpushPri(e.retries[e.rhead].idx)
			} else {
				e.qpush(e.retries[e.rhead].idx)
			}
			e.rhead++
		}
		for chead < len(clientQ) && clientQ[chead].readyAt <= now {
			c := clientQ[chead]
			chead++
			admitArrival(c.req, c.readyAt, c.attempts)
		}
		if bo != nil {
			// Brownout observes the post-arrival queue each round; the
			// active rung reshapes quantization, the operating point and
			// the best-effort cap until hysteresis walks it back down.
			if bo.Level() > 0 {
				rep.BrownoutSeconds += now - lastObserve
			}
			lastObserve = now
			lvl := bo.Observe(now, e.QueueLen())
			if lvl > rep.BrownoutMaxLevel {
				rep.BrownoutMaxLevel = lvl
			}
			st := boSpec.Step(lvl)
			e.bucketScale = max(st.CtxBucketScale, 1)
			if st.DVFS == (arch.DVFSPoint{}) {
				point = cfg.DVFS
			} else {
				point = st.DVFS
			}
		}
		if q := e.QueueLen(); q > rep.PeakQueue {
			rep.PeakQueue = q
		}
		// next is the earliest arrival, re-delivery or client re-arrival.
		next := math.Inf(1)
		if havePending {
			next = pending.Arrival
		}
		if e.rhead < len(e.retries) && e.retries[e.rhead].readyAt < next {
			next = e.retries[e.rhead].readyAt
		}
		if chead < len(clientQ) && clientQ[chead].readyAt < next {
			next = clientQ[chead].readyAt
		}
		if b.Len() == 0 && e.QueueLen() == 0 {
			if math.IsInf(next, 1) {
				return fmt.Errorf("serve: stream ended after %d of %d requests", rep.Completed, total)
			}
			// Idle: jump to the next arrival or re-delivery.
			now = next
			continue
		}
		// The round may leap over decode steps until the next event. A
		// crash is one. Brownout observes the queue every round and its
		// dwell clock moves with each observation, so a round is one step
		// unless the ladder is at rest: at level 0 below Enter it cannot
		// move until the queue grows, and only an arrival, a re-delivery
		// or a client re-arrival grows it, each of which bounds next.
		// Above level 0 rounds stay one step even on a quiet queue:
		// BrownoutSeconds sums each round's span, and a leap would
		// regroup that float sum.
		until := next
		if haveDown && curDown.Start < until {
			until = curDown.Start
		}
		if cfg.oneStep || bo != nil && !bo.AtRest(e.QueueLen()) {
			until = now
		}
		if now, err = e.Round(b, now, point, slowdown, true, until); err != nil {
			return err
		}
	}

	out.Report = e.Report()
	r := &out.Report
	if bo != nil && bo.Level() > 0 {
		r.BrownoutSeconds += now - lastObserve
	}
	// A crashed replica burns no leakage while down, so scheduled
	// downtime inside the run is not billed (span clamps at zero for the
	// corner where downtime was accrued outside the makespan envelope).
	leakSpan := now - firstArrival
	if r.DowntimeSeconds > 0 {
		leakSpan = math.Max(0, leakSpan-r.DowntimeSeconds)
	}
	r.Settle(firstArrival, lastArrival, now, e.leakage*leakSpan)
	out.FirstArrival, out.End, out.LeakageWatts, out.Orphans = firstArrival, now, e.leakage, orphans
	// The histograms are copied out, span by span, before the engine
	// returns to the pool: RunStats owns its populations, the engine's
	// are reused.
	h := e.h
	out.TTFT.set(&h.ttft)
	out.TPOT.set(&h.tpot)
	out.Latency.set(&h.lat)
	if classed {
		for c := range out.ClassTTFT {
			out.ClassTTFT[c].set(&h.cttft[c])
			out.ClassLatency[c].set(&h.clat[c])
		}
	}
	return nil
}
