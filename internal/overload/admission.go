package overload

import (
	"fmt"
	"math"
)

// Decision is the admission controller's verdict on one arrival. The
// scheduler applies it mechanically: Admit enqueues, Evict enqueues
// after removing the youngest strictly-lower-priority queued request,
// Degrade enqueues with the best-effort output cap applied, Shed
// refuses the request (handing it back to the client when retries are
// modeled).
type Decision int

const (
	// Admit accepts the request into the queue unchanged.
	Admit Decision = iota
	// Evict accepts the request by removing the youngest queued request
	// of strictly lower priority — interactive may displace best-effort,
	// never the reverse.
	Evict
	// Degrade accepts a best-effort request with its output capped by
	// the active brownout step.
	Degrade
	// Shed refuses the request.
	Shed
)

// TokenBucket rate-limits one class at admission. Tokens refill at Rate
// per second up to Burst; each admitted request consumes one. The zero
// value is unlimited — a class without a bucket is bounded only by the
// queue.
type TokenBucket struct {
	// Rate is the sustained admission rate, tokens (requests) per
	// second. 0 disables the bucket for its class.
	Rate float64
	// Burst caps accumulated tokens. 0 with Rate > 0 defaults to
	// max(1, 10*Rate) — ten seconds of headroom.
	Burst float64
}

// withDefaults fills the burst for a rate-limited bucket.
func (b TokenBucket) withDefaults() TokenBucket {
	if b.Rate > 0 && b.Burst == 0 {
		b.Burst = 10 * b.Rate
		if b.Burst < 1 {
			b.Burst = 1
		}
	}
	return b
}

// AdmissionSpec configures the admission controller: one token bucket
// per class. The queue bound itself stays serve.Config.MaxQueue — the
// controller decides *who* occupies the bounded queue, not how long it
// is. The zero spec admits everything the queue can hold but still
// enables strict-priority eviction and brownout degradation.
type AdmissionSpec struct {
	// Buckets holds the per-class token buckets, indexed by Class.
	Buckets [NumClasses]TokenBucket
}

// Validate rejects malformed specs: every bucket's Rate and Burst must
// be finite and non-negative (written !(x >= 0) so NaN fails).
func (s AdmissionSpec) Validate() error {
	for _, c := range Classes() {
		b := s.Buckets[c]
		if !(b.Rate >= 0) || math.IsInf(b.Rate, 1) {
			return fmt.Errorf("overload: AdmissionSpec bucket for %s: Rate must be finite and >= 0, got %g", c, b.Rate)
		}
		if !(b.Burst >= 0) || math.IsInf(b.Burst, 1) {
			return fmt.Errorf("overload: AdmissionSpec bucket for %s: Burst must be finite and >= 0, got %g", c, b.Burst)
		}
	}
	return nil
}

// Admission is the deterministic admission controller: per-class token
// buckets plus the strict-priority decision procedure. It is driven by
// simulated event times passed to Decide; state is purely arithmetic,
// so identical observation sequences yield identical decisions.
type Admission struct {
	spec   AdmissionSpec
	tokens [NumClasses]float64
	last   float64
}

// NewAdmission builds a controller with every bucket full.
func NewAdmission(spec AdmissionSpec) *Admission {
	a := &Admission{spec: spec}
	for i := range a.spec.Buckets {
		a.spec.Buckets[i] = a.spec.Buckets[i].withDefaults()
		a.tokens[i] = a.spec.Buckets[i].Burst
	}
	return a
}

// refill accrues tokens up to each burst. Event times may interleave
// slightly out of order (fresh arrivals vs client re-arrivals), so
// negative elapsed time is clamped rather than rewound.
func (a *Admission) refill(now float64) {
	dt := now - a.last
	if dt > 0 {
		for i, b := range a.spec.Buckets {
			if b.Rate > 0 {
				a.tokens[i] += b.Rate * dt
				if a.tokens[i] > b.Burst {
					a.tokens[i] = b.Burst
				}
			}
		}
	}
	if now > a.last {
		a.last = now
	}
}

// Decide classifies one arrival of class c at event time now. full
// reports a full bounded queue; lowerQueued whether some queued request
// has strictly lower priority than c (an eviction victim exists);
// degrading whether the active brownout step caps best-effort output.
// Admitting decisions (Admit, Evict, Degrade) consume a token from c's
// bucket; Shed consumes nothing.
//
// The order is fixed: an empty bucket sheds before the queue is even
// consulted (rate isolation beats queue occupancy); a non-full queue
// admits, degraded for best-effort under brownout; a full queue evicts
// when a strictly-lower-priority victim exists and sheds otherwise.
// Best-effort can never evict — nothing ranks below it.
func (a *Admission) Decide(now float64, c Class, full, lowerQueued, degrading bool) Decision {
	a.refill(now)
	limited := a.spec.Buckets[c].Rate > 0
	if limited && a.tokens[c] < 1 {
		return Shed
	}
	var d Decision
	switch {
	case !full && degrading && c == BestEffort:
		d = Degrade
	case !full:
		d = Admit
	case lowerQueued:
		d = Evict
	default:
		return Shed
	}
	if limited {
		a.tokens[c]--
	}
	return d
}
