package fleet

import (
	"fmt"
	"math"
	"strings"

	"mugi/internal/faults"
	"mugi/internal/overload"
	"mugi/internal/serve"
)

// Policy selects how the router assigns arriving requests to replicas.
type Policy int

const (
	// RoundRobin assigns requests to replicas in arrival order, modulo the
	// replica count — the stateless baseline every load balancer ships.
	RoundRobin Policy = iota
	// JSQ (join-shortest-queue) assigns each request to the replica with
	// the least estimated backlog at its arrival instant. The router keeps
	// a virtual completion clock per replica: every routed request extends
	// the clock by its estimated service demand (prefill seconds plus
	// output tokens times a batch-1 decode-step estimate, both priced on
	// the scheduler's quantized step-shape grid), and a replica's backlog
	// is how far its clock runs ahead of the arrival. The estimate is
	// deliberately simulation-independent so routing stays a pure function
	// of the stream — the property the byte-identical-at-any-parallelism
	// contract rests on.
	JSQ
	// Affinity hashes a request's session onto a fixed replica, modeling
	// session/prefix-cache routing: every request of a session lands where
	// its KV prefix is warm. Sessions are derived deterministically from
	// the request ID modulo Config.AffinitySessions.
	Affinity
)

// String names the policy for renderings and CLI flags.
func (p Policy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case JSQ:
		return "jsq"
	case Affinity:
		return "affinity"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps a CLI spelling to its Policy.
func ParsePolicy(s string) (Policy, error) {
	switch strings.ToLower(s) {
	case "round-robin", "roundrobin", "rr":
		return RoundRobin, nil
	case "jsq", "join-shortest-queue":
		return JSQ, nil
	case "affinity", "session", "prefix":
		return Affinity, nil
	}
	return 0, fmt.Errorf("fleet: unknown policy %q (want round-robin|jsq|affinity)", s)
}

// estimator prices a request's service demand for the JSQ virtual clock.
// Costs come from the replica's own StepFunc at batch 1 on the quantized
// step-shape grid, through a step-cost table of the probe state, so
// routing a long trace prices O(MaxSeq/CtxBucket) shapes, not
// O(requests), and the probes of one search price them once between
// them. Batch-1 pricing overestimates batched decode throughput, but
// every replica is overestimated identically, which is all a load
// comparison needs.
type estimator struct {
	cfg   serve.Config
	costs *serve.StepCosts
}

// newEstimator prices through costs, a table built for cfg.
func newEstimator(cfg serve.Config, costs *serve.StepCosts) *estimator {
	if cfg.CtxBucket == 0 {
		cfg.CtxBucket = serve.DefaultCtxBucket
	}
	return &estimator{cfg: cfg, costs: costs}
}

// pass prices one batch-1 pass.
func (e *estimator) pass(decode bool, ctx int) float64 {
	return e.costs.Cost(e.cfg.DVFS, decode, 1, e.cfg.BucketCtx(ctx)).Seconds
}

// demand estimates one request's service seconds on an idle replica.
func (e *estimator) demand(r serve.Request) float64 {
	return e.pass(false, r.Prompt) + float64(r.Output-1)*e.pass(true, r.Prompt+r.Output)
}

// sessionMix spreads session ids across replicas with a splitmix-style
// finalizer so session k and replica count n never alias through shared
// factors.
func sessionMix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// route drains the stream, assigning every request to a replica, and
// returns the per-replica schedules, the request count (overall and per
// priority class), and the global arrival envelope. Routing is a single
// serial pass — deterministic by construction — and requests keep their
// original arrival times, so all replicas share one simulated clock.
// With fault schedules supplied the pass is health-aware: an arrival
// aimed at a replica that is down is bounced to the next live one (JSQ
// excludes down replicas from its argmin outright), modeling a load
// balancer with health checks. With a breaker set supplied the pass
// also skips replicas whose circuit breaker is open — a replica can be
// up yet untrusted after a bad window — falling back to health-only
// routing when breakers block the whole fleet. JSQ prices its estimates
// through estCosts, a step-cost table built for cfg.Replica.
func route(cfg Config, src serve.Stream, scheds []*faults.Schedule, brk *breakerSet, estCosts *serve.StepCosts) (perReplica [][]serve.Request, count int, classes [overload.NumClasses]int, firstArrival, lastArrival float64, err error) {
	n := cfg.Replicas
	perReplica = make([][]serve.Request, n)
	var est *estimator
	busyUntil := make([]float64, n)
	if cfg.Policy == JSQ {
		est = newEstimator(cfg.Replica, estCosts)
	}
	// eligible is the dispatch predicate: up (when health-aware) and
	// breaker-allowed (when breakers are armed).
	eligible := func(j int, t float64) bool {
		if scheds != nil && scheds[j].DownAt(t) {
			return false
		}
		return brk == nil || brk.allow(j)
	}
	// bounce scans forward from the chosen target for the first eligible
	// replica; if breakers block every live replica, health alone decides
	// (shedding the whole fleet to an advisory mechanism would be worse
	// than dispatching through it).
	bounce := func(target int, t float64) int {
		for j := 0; j < n; j++ {
			r := (target + j) % n
			if eligible(r, t) {
				return r
			}
		}
		if scheds != nil && scheds[target].DownAt(t) {
			return failoverTarget(scheds, nil, target, t)
		}
		return target
	}
	i := 0
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		if i == 0 {
			firstArrival = r.Arrival
		}
		lastArrival = r.Arrival
		if brk != nil {
			brk.advance(r.Arrival)
		}
		var target int
		switch cfg.Policy {
		case RoundRobin:
			target = i % n
		case JSQ:
			// Least backlog among eligible replicas at the arrival
			// instant; ties go to the lowest index so the choice is
			// total-ordered.
			best, bestBacklog := -1, math.Inf(1)
			for j := 0; j < n; j++ {
				if !eligible(j, r.Arrival) {
					continue
				}
				if b := backlog(busyUntil[j], r.Arrival); b < bestBacklog {
					best, bestBacklog = j, b
				}
			}
			if best < 0 && brk != nil {
				// Breakers blocked every live replica: health-only argmin.
				for j := 0; j < n; j++ {
					if scheds != nil && scheds[j].DownAt(r.Arrival) {
						continue
					}
					if b := backlog(busyUntil[j], r.Arrival); b < bestBacklog {
						best, bestBacklog = j, b
					}
				}
			}
			if best < 0 {
				// Whole fleet down: queue at the soonest-repaired replica.
				best = failoverTarget(scheds, nil, n-1, r.Arrival)
			}
			target = best
		case Affinity:
			sess := uint64(r.ID % cfg.AffinitySessions)
			target = int(sessionMix(sess) % uint64(n))
		default:
			return nil, 0, classes, 0, 0, fmt.Errorf("fleet: unknown policy %v", cfg.Policy)
		}
		if !eligible(target, r.Arrival) {
			target = bounce(target, r.Arrival)
		}
		if brk != nil {
			brk.dispatched(target)
		}
		if cfg.Policy == JSQ {
			start := r.Arrival
			if busyUntil[target] > start {
				start = busyUntil[target]
			}
			busyUntil[target] = start + est.demand(r)
		}
		perReplica[target] = append(perReplica[target], r)
		classes[r.Class]++
		i++
	}
	if i == 0 {
		return nil, 0, classes, 0, 0, fmt.Errorf("fleet: empty trace")
	}
	if brk != nil {
		brk.finish()
	}
	return perReplica, i, classes, firstArrival, lastArrival, nil
}

// failoverTarget picks where work aimed at (or orphaned by) replica
// `from` goes at time t: the first replica up at t, scanning from
// from+1 in index order (wrapping; `from` itself is eligible last, so a
// repaired replica can take its own work back). With a breaker set
// supplied, replicas whose breaker was open at t are skipped on the
// first scan and reconsidered on a health-only second scan — the same
// advisory-only fallback the router uses. If the whole fleet is down at
// t, the replica whose repair completes soonest wins, ties to the
// lowest index — every rule is total-ordered, so the choice is
// deterministic.
func failoverTarget(scheds []*faults.Schedule, brk *breakerSet, from int, t float64) int {
	n := len(scheds)
	if brk != nil {
		for j := 1; j <= n; j++ {
			r := (from + j) % n
			if scheds[r].UpAt(t) && !brk.blockedAt(r, t) {
				return r
			}
		}
	}
	for j := 1; j <= n; j++ {
		r := (from + j) % n
		if scheds[r].UpAt(t) {
			return r
		}
	}
	best, bestEnd := from, math.Inf(1)
	for r := 0; r < n; r++ {
		if iv, ok := scheds[r].DownAfter(t); ok && iv.Contains(t) && iv.End < bestEnd {
			best, bestEnd = r, iv.End
		}
	}
	return best
}

// insertByArrival inserts a re-dispatched request into a replica's
// schedule keeping arrival order; equal arrivals keep existing entries
// first, so insertion order (which is deterministic) breaks ties.
func insertByArrival(rs *[]serve.Request, r serve.Request) {
	s := append(*rs, r)
	i := len(s) - 1
	for i > 0 && s[i-1].Arrival > r.Arrival {
		s[i] = s[i-1]
		i--
	}
	s[i] = r
	*rs = s
}

// removeAttempt deletes the schedule entry carrying a handled orphan —
// matched by (ID, Retries), an attempt's stable identity — so the
// crashed replica's re-run cannot serve an attempt that failover already
// re-dispatched elsewhere. Without the removal a re-run whose batching
// was perturbed by incoming re-dispatches could complete the attempt it
// previously orphaned, double-serving the request.
func removeAttempt(rs *[]serve.Request, id, retries int) {
	s := *rs
	for i := range s {
		if s[i].ID == id && s[i].Retries == retries {
			copy(s[i:], s[i+1:])
			*rs = s[:len(s)-1]
			return
		}
	}
}

// backlog is how far a replica's virtual clock runs ahead of now.
func backlog(busyUntil, now float64) float64 {
	if busyUntil <= now {
		return 0
	}
	return busyUntil - now
}

// replicaStream wraps one replica's routed schedule as a serve.Stream.
type replicaStream struct {
	info serve.TraceInfo
	rs   []serve.Request
	i    int
}

func (s *replicaStream) Info() serve.TraceInfo { return s.info }
func (s *replicaStream) Len() int              { return len(s.rs) }

func (s *replicaStream) Next() (serve.Request, bool) {
	if s.i >= len(s.rs) {
		return serve.Request{}, false
	}
	r := s.rs[s.i]
	s.i++
	return r, true
}
