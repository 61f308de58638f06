// Package fleet is the cluster-level price-performance planner: it lifts
// the single-replica serving simulator (internal/serve) to the question a
// deployment is actually sized by — "what fleet should I buy?". Three
// layers compose:
//
//   - a multi-replica trace router (Run) that splits one arrival stream
//     across N identical replicas under a pluggable policy (round-robin,
//     join-shortest-queue, session affinity), runs each replica's
//     continuous-batching scheduler through the pooled zero-alloc core of
//     internal/serve, and merges the per-replica latency histograms into
//     one fleet-level serve.Report;
//   - a TCO model (Price) that prices a (design, mesh, replicas) fleet
//     from quantities the stack already computes: capex from the 45 nm
//     cost table's die area via a $/mm² parameter, opex from the
//     simulator's joules per request and an electricity price, and
//     carbon — operational and embodied, via internal/carbon — priced
//     through a $/tonne parameter, yielding $/1k-requests and $/Mtoken at
//     a target utilization;
//   - a Pareto engine (Plan, Frontier) that sweeps design × mesh ×
//     replica-count cells against an SLO, binary-searches each cell's
//     SLO-compliant capacity, prunes dominated cells, and emits perf/$
//     and perf/W frontiers.
//
// Plan is the repository's one capacity search. A one-replica cell sizes
// a single serving configuration, with serve.RunStream's bytes; the
// autoscaler's calibration, the capacity experiment, mugisim -capacity
// and every MinuteServe entry run such cells.
//
// Everything inherits the repository's determinism contract: routing is a
// single serial pass over the seeded stream, replicas are sharded by
// index through runner.Map, and merges read per-replica results in index
// order — so every report and frontier is byte-identical at any runner
// parallelism, including under the race detector.
package fleet

import (
	"fmt"
	"strings"

	"mugi/internal/arch"
	"mugi/internal/faults"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// DefaultAffinitySessions is the default session population for the
// Affinity policy: request IDs fold onto this many logical sessions
// before hashing onto replicas.
const DefaultAffinitySessions = 64

// MaxReplicas bounds a fleet so a mistyped CLI flag cannot ask the router
// to materialize millions of per-replica schedules.
const MaxReplicas = 4096

// Config bundles a fleet run: one replica's serving configuration
// stamped out Replicas times behind a routing policy.
type Config struct {
	// Replica is the per-replica serving configuration (model, design,
	// mesh, batch cap, KV budget — see serve.Config). Its Faults and
	// Retry must be zero: the router owns every replica's fault schedule
	// and failover policy (see Faults, MaxRedispatch and FailoverDelay).
	Replica serve.Config
	// Replicas is the replica count (default 1, max MaxReplicas).
	Replicas int
	// Policy routes arrivals to replicas (default RoundRobin).
	Policy Policy
	// AffinitySessions is the session population for the Affinity policy
	// (default DefaultAffinitySessions).
	AffinitySessions int
	// Window, when its Width is positive, turns on windowed SLO
	// accounting: each replica accumulates per-window violation stats
	// through serve.Config.Observe and Run merges them (in index order)
	// into Report.Windows. Requires Replica.Observe to be nil — the
	// router owns the hook.
	Window serve.WindowSpec
	// Faults, when enabled, injects per-replica fault schedules drawn
	// from the spec (replica i's timeline is a pure function of
	// (Faults.Seed, i)), turns routing health-aware (arrivals skip
	// replicas that are down), and arms failover: requests orphaned by a
	// crash are re-dispatched to the next live replica after a
	// deterministic detection delay, at most MaxRedispatch times, then
	// shed with accounting.
	Faults faults.Spec
	// MaxRedispatch bounds failover re-dispatches per request (default
	// serve.DefaultMaxRedispatch).
	MaxRedispatch int
	// FailoverDelay is the crash-detection plus re-dispatch latency in
	// seconds (default serve.DefaultRetryDelay); attempt k of a request
	// is re-delivered k*FailoverDelay after the crash that orphaned it —
	// a deterministic linear backoff.
	FailoverDelay float64
	// Breaker, when non-nil, arms one circuit breaker per replica in the
	// router: a replica whose recent-window downtime fraction trips the
	// threshold stops receiving dispatches until it half-opens after the
	// cooldown and proves itself with successful probes. Requires Faults
	// — the injected fault schedules are the breaker's failure signal.
	Breaker *overload.BreakerSpec
}

// withDefaults materializes the zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Replicas == 0 {
		c.Replicas = 1
	}
	if c.AffinitySessions == 0 {
		c.AffinitySessions = DefaultAffinitySessions
	}
	if c.MaxRedispatch == 0 {
		c.MaxRedispatch = serve.DefaultMaxRedispatch
	}
	if c.FailoverDelay == 0 {
		c.FailoverDelay = serve.DefaultRetryDelay
	}
	return c
}

// Report is one fleet run: the merged fleet-level serving report plus the
// per-replica detail behind it.
type Report struct {
	// Fleet is the merged report. Its percentiles are computed over every
	// replica's samples (the per-replica histograms merge losslessly on
	// the shared grid), not averaged from per-replica summaries; its
	// Makespan spans the whole fleet (first arrival anywhere to last
	// completion anywhere); its TotalEnergy charges each replica's
	// leakage over that replica's own busy span (first routed arrival to
	// last completion) — a replica that finishes early, or was never
	// routed to, stops burning static power when its work ends. Callers
	// comparing against an always-on deployment (internal/autoscale's
	// static baseline) must add the idle-span leakage themselves.
	// PeakKVBytes sums per-replica peaks (a provisioning bound);
	// PeakQueue is the worst single replica's backlog.
	Fleet serve.Report
	// Replicas holds the per-replica reports, indexed by replica id. A
	// replica the policy never routed to has a zero Report.
	Replicas []serve.Report
	// Routed counts the requests assigned to each replica.
	Routed []int
	// Policy is the routing policy the run used.
	Policy Policy
	// Windows is the merged windowed SLO accounting (nil unless
	// Config.Window was enabled).
	Windows *serve.Windows
	// BreakerTrips counts circuit-breaker trips per replica (nil unless
	// Config.Breaker was armed).
	BreakerTrips []int
}

// String renders the fleet report deterministically: the merged report
// followed by one routing line per replica.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d replicas, %s routing\n", len(r.Replicas), r.Policy)
	b.WriteString(r.Fleet.String())
	for i, rep := range r.Replicas {
		if r.Routed[i] == 0 {
			fmt.Fprintf(&b, "replica %d: 0 requests\n", i)
			continue
		}
		fmt.Fprintf(&b, "replica %d: %d requests  sustained %.3f req/s  mean batch %.2f  peak queue %d\n",
			i, r.Routed[i], rep.SustainedRate, rep.MeanBatch, rep.PeakQueue)
	}
	if r.BreakerTrips != nil {
		total := 0
		for _, n := range r.BreakerTrips {
			total += n
		}
		fmt.Fprintf(&b, "breaker: %d trips  per replica %v\n", total, r.BreakerTrips)
	}
	return b.String()
}

// Run routes the stream across the fleet and returns the merged report.
// Phase 1 routes every request serially (the policy is a pure function of
// the stream; with faults enabled it is also health-aware — arrivals skip
// replicas that are down); phase 2 runs each replica's scheduler, sharded
// across the runner pool by replica index (each replica borrows the
// pooled zero-alloc engine of internal/serve and prices its steps
// through its own step-cost table, which lives as long as the call);
// phase 3 merges per-replica results in index order.
//
// With Config.Faults enabled, phases 2–3 iterate to a failover fixed
// point: each crash-orphaned attempt is removed from the replica that
// dropped it and re-dispatched to the next live replica (after the
// deterministic detection delay, bounded by MaxRedispatch, then shed
// with accounting), and every replica whose schedule changed re-runs,
// until a sweep finds no unhandled orphan. The iteration is
// deterministic and terminates: crash instants are wall-clock anchored
// (a pure function of the seed and replica index, never of load), each
// (request, attempt) identity is handled exactly once, and a request
// has at most MaxRedispatch+1 attempts — so the handled set is bounded
// and every round with fresh orphans consumes budget. At the fixed
// point no final report carries an orphan: every arrival is completed
// or shed somewhere, and the output is byte-identical at any runner
// parallelism.
//
// The router materializes per-replica schedules, so fleet runs hold
// O(trace length) request records — fleet planning is built around
// bounded probe traces, not the million-request streaming path.
//
// Each call builds one probe state (probeState) for its replicas, so a
// replica prices each step shape once per call, however many failover
// re-runs it takes. Plan's probes share one state per cell instead.
func Run(cfg Config, src serve.Stream) (Report, error) {
	return run(cfg, src, new(probeState))
}

// probeState is what the probes of one capacity search share. They
// differ only in trace rate, so every step-cost table stays valid from
// one probe to the next: one table per replica index, because replicas
// run concurrently through runner.Map and cannot share one, and one for
// the JSQ estimator. The per-replica RunStats buffer is reused too:
// each replica's run fills its own entry in place, and the fleet's
// latency populations merge into the first served replica's entry, so
// a probe copies and zeroes no whole histogram. A state serves one
// fleet configuration, one probe at a time.
type probeState struct {
	costs []*serve.StepCosts // per replica index
	est   *serve.StepCosts   // the JSQ estimator's; nil under other policies
	stats []serve.RunStats   // per-replica results of the current probe
}

// begin readies the state for a probe of the defaulted, validated cfg:
// the first probe builds the tables and the buffer, and every later one
// empties the buffer, each histogram by span, so no probe reads a
// replica an earlier one ran.
func (st *probeState) begin(cfg Config) {
	if st.stats != nil {
		for i := range st.stats {
			st.stats[i].Reset()
		}
		return
	}
	st.stats = make([]serve.RunStats, cfg.Replicas)
	st.costs = make([]*serve.StepCosts, cfg.Replicas)
	for i := range st.costs {
		st.costs[i] = serve.NewStepCosts(cfg.Replica)
	}
	if cfg.Policy == JSQ {
		st.est = serve.NewStepCosts(cfg.Replica)
	}
}

// run is Run over a probe state that may outlive the call.
func run(cfg Config, src serve.Stream, st *probeState) (Report, error) {
	cfg = cfg.withDefaults()
	if cfg.Replicas < 1 || cfg.Replicas > MaxReplicas {
		return Report{}, fmt.Errorf("fleet: replica count %d outside [1, %d]", cfg.Replicas, MaxReplicas)
	}
	if cfg.Window.Width > 0 && cfg.Replica.Observe != nil {
		return Report{}, fmt.Errorf("fleet: Config.Window and Replica.Observe are mutually exclusive")
	}
	if cfg.Window.Width < 0 {
		return Report{}, fmt.Errorf("fleet: window width %g must be non-negative", cfg.Window.Width)
	}
	if cfg.MaxRedispatch < 0 || cfg.FailoverDelay < 0 {
		return Report{}, fmt.Errorf("fleet: failover policy must be non-negative (max redispatch %d, delay %g)", cfg.MaxRedispatch, cfg.FailoverDelay)
	}
	if cfg.Replica.Faults != nil {
		return Report{}, fmt.Errorf("fleet: Replica.Faults must be nil — the router owns the schedules (see Config.Faults)")
	}
	if cfg.Replica.Retry != (serve.RetryPolicy{}) {
		return Report{}, fmt.Errorf("fleet: Replica.Retry must be zero — failover follows Config.MaxRedispatch and FailoverDelay")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return Report{}, err
	}
	faulty := cfg.Faults.Enabled()
	var scheds []*faults.Schedule
	if faulty {
		scheds = make([]*faults.Schedule, cfg.Replicas)
		for i := range scheds {
			s, err := faults.New(cfg.Faults, i)
			if err != nil {
				return Report{}, err
			}
			scheds[i] = s
		}
	}
	var brk *breakerSet
	if cfg.Breaker != nil {
		if !faulty {
			return Report{}, fmt.Errorf("fleet: Config.Breaker requires Config.Faults — the injected fault schedules are the breaker's failure signal")
		}
		bspec := cfg.Breaker.WithDefaults()
		if err := bspec.Validate(); err != nil {
			return Report{}, err
		}
		brk = newBreakerSet(bspec, scheds)
	}
	st.begin(cfg)
	perReplica, originals, classes, firstArrival, lastArrival, err := route(cfg, src, scheds, brk, st.est)
	if err != nil {
		return Report{}, err
	}
	info := src.Info()

	stats := st.stats
	errs := make([]error, cfg.Replicas)
	var wins []*serve.Windows
	if cfg.Window.Width > 0 {
		wins = make([]*serve.Windows, cfg.Replicas)
	}
	retry := serve.RetryPolicy{MaxRedispatch: cfg.MaxRedispatch, Delay: cfg.FailoverDelay}
	// handled keys every orphan already re-dispatched (or shed) by its
	// stable (request, attempt) identity, so re-runs never double-handle.
	// Membership tests only — never iterated — so no map-order hazard.
	type orphanKey struct{ id, retries int }
	var handled map[orphanKey]bool
	if faulty {
		handled = make(map[orphanKey]bool)
	}
	dirty := make([]bool, cfg.Replicas)
	for i := range dirty {
		dirty[i] = true
	}
	shedFailover, redispatched := 0, 0
	var shedClass [overload.NumClasses]int
	for {
		// Run every replica whose assignment changed since its last run;
		// each shard observes into its own window accumulator so the merge
		// below stays parallelism-independent.
		torun := make([]int, 0, cfg.Replicas)
		for i := range dirty {
			if dirty[i] && len(perReplica[i]) > 0 {
				torun = append(torun, i)
			}
			dirty[i] = false
		}
		runner.Map(len(torun), func(k int) {
			i := torun[k]
			rcfg := cfg.Replica
			if faulty {
				rcfg.Faults = scheds[i]
				rcfg.Retry = retry
			}
			if wins != nil {
				wins[i] = serve.NewWindows(cfg.Window)
				rcfg.Observe = wins[i].Observe
			}
			errs[i] = serve.RunStreamStats(rcfg, &replicaStream{info: info, rs: perReplica[i]}, st.costs[i], &stats[i])
		})
		for _, i := range torun {
			if errs[i] != nil {
				return Report{}, fmt.Errorf("fleet: replica %d: %w", i, errs[i])
			}
		}
		if !faulty {
			break
		}
		// Failover: sweep fresh orphans in (replica, crash-order) order and
		// re-dispatch each to the next live replica after the detection
		// delay, or shed it once its re-dispatch budget is spent.
		fresh := false
		for i := 0; i < cfg.Replicas; i++ {
			for _, o := range stats[i].Orphans {
				k := orphanKey{id: o.Req.ID, retries: o.Req.Retries}
				if handled[k] {
					continue
				}
				handled[k] = true
				fresh = true
				// The handled attempt leaves its replica's schedule (and the
				// replica re-runs without it): failover owns it now, and the
				// re-run must not serve an attempt re-dispatched elsewhere.
				removeAttempt(&perReplica[i], o.Req.ID, o.Req.Retries)
				dirty[i] = true
				if o.Req.Retries >= cfg.MaxRedispatch {
					shedFailover++
					shedClass[o.Req.Class]++
					continue
				}
				// The hand-off keeps the request's tenant class: failover
				// moves work between replicas, it never re-prices it.
				req := o.Req
				req.Retries++
				req.Arrival = o.At + float64(req.Retries)*cfg.FailoverDelay
				t := failoverTarget(scheds, brk, i, req.Arrival)
				insertByArrival(&perReplica[t], req)
				dirty[t] = true
				redispatched++
			}
		}
		if !fresh {
			break
		}
	}

	out := Report{
		Replicas: make([]serve.Report, cfg.Replicas),
		Routed:   make([]int, cfg.Replicas),
		Policy:   cfg.Policy,
	}
	var (
		// merged is the first served replica's RunStats, into which the
		// others' latency populations fold in index order; its own
		// report is read before anything folds into it.
		merged     *serve.RunStats
		end        float64
		batchSum   float64
		leakEnergy float64
	)
	if brk != nil {
		out.BreakerTrips = brk.trips()
	}
	if wins != nil {
		out.Windows = serve.NewWindows(cfg.Window)
	}
	fl := &out.Fleet
	fl.Trace = info
	for i := range stats {
		out.Routed[i] = len(perReplica[i])
		if len(perReplica[i]) == 0 {
			// A replica that served nothing burns no busy-span leakage
			// here; its silicon still costs capex (Price charges every
			// owned replica), and always-on deployments charge its idle
			// leakage at the caller (see Report.Fleet).
			continue
		}
		rep := stats[i].Report
		out.Replicas[i] = rep
		if fl.Model == "" {
			fl.Model, fl.Design, fl.Mesh = rep.Model, rep.Design, rep.Mesh
		}
		fl.Requests += rep.Requests
		fl.Completed += rep.Completed
		fl.PromptTokens += rep.PromptTokens
		fl.OutputTokens += rep.OutputTokens
		fl.PrefillSteps += rep.PrefillSteps
		fl.DecodeSteps += rep.DecodeSteps
		batchSum += rep.MeanBatch * float64(rep.DecodeSteps)
		fl.PeakKVBytes += rep.PeakKVBytes
		if rep.PeakQueue > fl.PeakQueue {
			fl.PeakQueue = rep.PeakQueue
		}
		fl.KVQueuedRequests += rep.KVQueuedRequests
		fl.DynamicEnergy += rep.DynamicEnergy
		fl.NoCLimitedSteps += rep.NoCLimitedSteps
		// Availability accounting sums across replicas; hand-off orphans
		// are intentionally NOT summed — each was re-dispatched (counted
		// below) or shed at the fleet level, never left dangling.
		fl.Crashes += rep.Crashes
		fl.DowntimeSeconds += rep.DowntimeSeconds
		fl.TransientErrors += rep.TransientErrors
		fl.Redispatched += rep.Redispatched
		fl.Shed += rep.Shed
		fl.ShedOverload += rep.ShedOverload
		fl.Evicted += rep.Evicted
		fl.Degraded += rep.Degraded
		fl.ClientRetries += rep.ClientRetries
		if rep.BrownoutMaxLevel > fl.BrownoutMaxLevel {
			fl.BrownoutMaxLevel = rep.BrownoutMaxLevel
		}
		fl.BrownoutSeconds += rep.BrownoutSeconds
		// Per-class fate counters sum like their totals; Orphaned is
		// intentionally NOT summed — the failover fixed point leaves no
		// orphan dangling (each became a redispatch or a shed).
		for c := range fl.Classes {
			cs := rep.Classes[c]
			fl.Classes[c].Completed += cs.Completed
			fl.Classes[c].Shed += cs.Shed
			fl.Classes[c].Evicted += cs.Evicted
			fl.Classes[c].Degraded += cs.Degraded
			fl.Classes[c].PromptTokens += cs.PromptTokens
			fl.Classes[c].OutputTokens += cs.OutputTokens
		}
		if rep.Slowdown > fl.Slowdown {
			fl.Slowdown = rep.Slowdown
		}
		// Busy-span leakage: this replica's static power over its own
		// first-arrival-to-last-completion span, not the fleet makespan —
		// a replica that drains early stops leaking into the bill, which
		// keeps static-vs-autoscaled $/day comparisons apples-to-apples.
		// Downtime inside the span is dead silicon and is not billed.
		span := stats[i].End - stats[i].FirstArrival
		if rep.DowntimeSeconds > 0 {
			span -= rep.DowntimeSeconds
			if span < 0 {
				span = 0
			}
		}
		leakEnergy += stats[i].LeakageWatts * span
		if stats[i].End > end {
			end = stats[i].End
		}
		if merged == nil {
			merged = &stats[i]
		} else {
			mergeHists(merged, &stats[i])
		}
		if wins != nil && wins[i] != nil {
			if err := out.Windows.Merge(wins[i]); err != nil {
				return Report{}, err
			}
		}
	}
	// Re-dispatched re-deliveries are not fresh arrivals: the fleet serves
	// the original stream, so the merged Requests count reverts to it (on
	// a fault-free run the per-replica sum already equals it).
	fl.Requests = originals
	fl.Shed += shedFailover
	fl.Redispatched += redispatched
	if fl.DecodeSteps > 0 {
		fl.MeanBatch = batchSum / float64(fl.DecodeSteps)
	}
	if merged != nil {
		fl.TTFT = merged.TTFT.Percentiles()
		fl.TPOT = merged.TPOT.Percentiles()
		fl.Latency = merged.Latency.Percentiles()
	}
	overloadOn := cfg.Replica.OverloadOn()
	fl.OverloadOn = overloadOn
	fl.TenantsOn = info.Tenants != "" || overloadOn
	if fl.TenantsOn {
		// Per-class Requests revert to the routed originals for the same
		// reason the total does: redispatches are not fresh arrivals.
		for c := range fl.Classes {
			fl.Classes[c].Requests = classes[c]
			fl.Classes[c].Shed += shedClass[c]
			if merged != nil {
				fl.Classes[c].TTFT = merged.ClassTTFT[c].Percentiles()
				fl.Classes[c].Latency = merged.ClassLatency[c].Percentiles()
			}
		}
	}
	fl.FaultsOn = faulty || cfg.Replica.MaxQueue > 0 || overloadOn
	if fl.FaultsOn && fl.Slowdown == 0 {
		fl.Slowdown = 1
	}
	fl.Settle(firstArrival, lastArrival, end, leakEnergy)
	return out, nil
}

// mergeHists folds src's latency populations, overall and per class,
// into dst's.
func mergeHists(dst, src *serve.RunStats) {
	dst.TTFT.Merge(&src.TTFT)
	dst.TPOT.Merge(&src.TPOT)
	dst.Latency.Merge(&src.Latency)
	for c := range dst.ClassTTFT {
		dst.ClassTTFT[c].Merge(&src.ClassTTFT[c])
		dst.ClassLatency[c].Merge(&src.ClassLatency[c])
	}
}

// ReplicaLeakageWatts is the static power of one idle replica at the
// nominal operating point: its full silicon (nodes plus NoC routers)
// leaking. internal/autoscale uses it to charge an always-on baseline
// for the idle spans fleet.Run no longer bills.
func ReplicaLeakageWatts(d arch.Design, mesh noc.Mesh) float64 {
	return ReplicaAreaMM2(d, mesh) * arch.Cost45nm.LeakagePerMM2
}

// ReplicaAreaMM2 is the total silicon of one replica: every node's die
// plus the NoC routers.
func ReplicaAreaMM2(d arch.Design, mesh noc.Mesh) float64 {
	if mesh.Nodes() == 0 {
		mesh = noc.Single
	}
	return d.Area(&arch.Cost45nm).Total()*float64(mesh.Nodes()) + mesh.AreaMM2()
}
