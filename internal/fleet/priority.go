package fleet

import (
	"fmt"
	"strings"

	"mugi/internal/overload"
	"mugi/internal/serve"
)

// PrioritySpec parameterizes the price-of-priority comparison: one
// tenanted fleet (per-class admission, brownout, client retry — however
// the caller deploys it) against the same silicon run as a shared
// best-effort fleet with no isolation machinery. Where PlanNines prices
// an extra nine of availability, PlanPriority prices an extra class of
// service: what does it cost, per thousand requests, to give the
// interactive tenant its SLO instead of letting everyone share the
// queue?
type PrioritySpec struct {
	// Fleet is the tenanted deployment under test: Replica carries the
	// admission/brownout/client-retry configuration, and Faults/Breaker
	// apply to both sides of the comparison (isolation should not get
	// credit for a calmer failure environment).
	Fleet Config
	// Trace is the tenanted probe traffic; Tenants must be set — the
	// comparison is meaningless without a class mix. The shared baseline
	// serves the identical arrival and length sequence with the class
	// tags erased (tenant tagging draws from a decoupled RNG, so erasing
	// it changes no arrival or length draw).
	Trace serve.TraceConfig
	// Book prices both operating points.
	Book PriceBook
	// SLOs overrides the per-class latency targets; zero entries take
	// overload.DefaultSLO for their class.
	SLOs [overload.NumClasses]overload.SLO
}

// ClassPrice is one class's row of the price-of-priority sheet.
type ClassPrice struct {
	// Class identifies the row.
	Class overload.Class
	// Requests and Completed are the class's fate counters from the
	// tenanted fleet report.
	Requests, Completed int
	// TTFTP99 and LatencyP99 are the class's measured tails (seconds).
	TTFTP99, LatencyP99 float64
	// SLO is the target the class was judged against; SLOMet reports the
	// verdict (false when the class completed nothing). A class with no
	// requests has nothing to miss and renders "-" instead of a verdict.
	SLO    overload.SLO
	SLOMet bool
	// DollarsPer1k attributes the tenanted fleet's cost to this class in
	// proportion to the tokens it consumed: per-request price of serving
	// this class at its priority.
	DollarsPer1k float64
}

// PriorityResult is the full comparison: the tenanted fleet's per-class
// prices against the shared fleet's undifferentiated price.
type PriorityResult struct {
	// Tenanted and Shared are the two fleet reports.
	Tenanted, Shared Report
	// TenantedTCO and SharedTCO price the two operating points.
	TenantedTCO, SharedTCO TCO
	// Classes holds one row per class in overload.Classes() order
	// (interactive, standard, best-effort).
	Classes []ClassPrice
	// IsolationPremium is the interactive class's $/1k divided by the
	// shared fleet's $/1k — the multiplier a tenant pays for a protected
	// queue instead of a shared one.
	IsolationPremium float64
}

// String renders the comparison deterministically.
func (r PriorityResult) String() string {
	var b strings.Builder
	b.WriteString("price of priority: tenanted fleet vs shared best-effort fleet\n")
	for _, cp := range r.Classes {
		verdict := "met"
		switch {
		case cp.Requests == 0:
			verdict = "-"
		case !cp.SLOMet:
			verdict = "MISSED"
		}
		fmt.Fprintf(&b, "class %-11s %6d req  %6d done  $%.4f/1k  ttft p99 %s / slo %s  lat p99 %s / slo %s  %s\n",
			cp.Class, cp.Requests, cp.Completed, cp.DollarsPer1k,
			sloSecs(cp.TTFTP99), sloSecs(cp.SLO.TTFTP99),
			sloSecs(cp.LatencyP99), sloSecs(cp.SLO.LatencyP99), verdict)
	}
	fmt.Fprintf(&b, "shared fleet: $%.4f/1k undifferentiated\n", r.SharedTCO.DollarsPer1k)
	fmt.Fprintf(&b, "isolation premium: %.2fx (interactive $/1k over shared $/1k)\n", r.IsolationPremium)
	return b.String()
}

// sloSecs renders a seconds figure, "-" for an absent bound or sample.
func sloSecs(v float64) string {
	if v <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fs", v)
}

// PlanPriority runs the tenanted fleet and its shared-baseline twin over
// the same seeded probe and prices both. The shared twin keeps the
// silicon, the routing policy, the fault schedules and the breaker —
// everything but the isolation machinery: tenant tags are erased and
// Replica admission, brownout and client retry are cleared, so the
// delta is purely the price of priority. Cost attribution inside the
// tenanted fleet is token-proportional: each class is charged the share
// of the fleet's total dollars matching its share of processed tokens,
// then normalized per thousand of its own completed requests — a class
// that consumes half the tokens with a tenth of the requests pays
// accordingly.
func PlanPriority(spec PrioritySpec) (PriorityResult, error) {
	var res PriorityResult
	if len(spec.Trace.Tenants) == 0 {
		return res, fmt.Errorf("fleet: PlanPriority needs a tenant mix (Trace.Tenants is empty)")
	}

	// Tenanted side.
	src, err := serve.NewStream(spec.Trace)
	if err != nil {
		return res, err
	}
	res.Tenanted, err = Run(spec.Fleet, src)
	if err != nil {
		return res, err
	}

	// Shared baseline: same arrivals and lengths, no classes, no
	// admission machinery.
	sharedTrace := spec.Trace
	sharedTrace.Tenants = nil
	sharedCfg := spec.Fleet
	sharedCfg.Replica.Admission = nil
	sharedCfg.Replica.Brownout = nil
	sharedCfg.Replica.ClientRetry = overload.ClientRetrySpec{}
	ssrc, err := serve.NewStream(sharedTrace)
	if err != nil {
		return res, err
	}
	res.Shared, err = Run(sharedCfg, ssrc)
	if err != nil {
		return res, err
	}

	replicas := spec.Fleet.withDefaults().Replicas
	d, mesh := spec.Fleet.Replica.Design, spec.Fleet.Replica.Mesh
	res.TenantedTCO, err = Price(spec.Book, d, mesh, replicas, res.Tenanted.Fleet)
	if err != nil {
		return res, fmt.Errorf("fleet: pricing tenanted fleet: %w", err)
	}
	res.SharedTCO, err = Price(spec.Book, d, mesh, replicas, res.Shared.Fleet)
	if err != nil {
		return res, fmt.Errorf("fleet: pricing shared fleet: %w", err)
	}

	// Token-proportional attribution of the tenanted fleet's dollars.
	fl := res.Tenanted.Fleet
	totalDollars := res.TenantedTCO.DollarsPer1k / 1000 * float64(fl.Completed)
	var workTotal float64
	for c := range fl.Classes {
		workTotal += float64(fl.Classes[c].PromptTokens + fl.Classes[c].OutputTokens)
	}
	for _, c := range overload.Classes() {
		cs := fl.Classes[c]
		slo := spec.SLOs[c]
		if slo == (overload.SLO{}) {
			slo = overload.DefaultSLO(c)
		}
		cp := ClassPrice{
			Class:      c,
			Requests:   cs.Requests,
			Completed:  cs.Completed,
			TTFTP99:    cs.TTFT.P99,
			LatencyP99: cs.Latency.P99,
			SLO:        slo,
		}
		cp.SLOMet = cs.Completed > 0 && slo.Met(cp.TTFTP99, cp.LatencyP99)
		if cs.Completed > 0 && workTotal > 0 {
			dollars := totalDollars * float64(cs.PromptTokens+cs.OutputTokens) / workTotal
			cp.DollarsPer1k = dollars / float64(cs.Completed) * 1000
		}
		res.Classes = append(res.Classes, cp)
		if c == overload.Interactive && res.SharedTCO.DollarsPer1k > 0 {
			res.IsolationPremium = cp.DollarsPer1k / res.SharedTCO.DollarsPer1k
		}
	}
	return res, nil
}
