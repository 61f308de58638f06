package fleet

import (
	"strings"
	"testing"

	"mugi/internal/faults"
	"mugi/internal/overload"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// tenantedTrace is the shared three-class probe mix.
func tenantedTrace(requests int) serve.TraceConfig {
	return serve.TraceConfig{
		Kind: serve.Bursty, Rate: 0.15, Requests: requests, Seed: testSeed,
		Tenants: []serve.TenantSpec{
			{Class: overload.Interactive, Share: 0.3},
			{Class: overload.Standard, Share: 0.4},
			{Class: overload.BestEffort, Share: 0.3},
		},
	}
}

func tenantedStream(t *testing.T, requests int) serve.Stream {
	t.Helper()
	src, err := serve.NewStream(tenantedTrace(requests))
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestTenantedFaultyFleetClassAttribution is the hand-off regression
// test: under crashes, failover re-dispatch (the hand-off keeps the
// tenant class on the moved request), and budget-exhausted shedding, the
// merged fleet report's per-class fate counters must balance — every
// class's offered requests end completed or shed, none dangling, and
// the classes sum back to the fleet totals.
func TestTenantedFaultyFleetClassAttribution(t *testing.T) {
	cfg := faultyConfig()
	rep, err := Run(cfg, tenantedStream(t, 48))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Fleet
	if f.Crashes == 0 || f.Redispatched == 0 {
		t.Fatalf("probe too calm (crashes %d, redispatched %d): class attribution never crossed a hand-off", f.Crashes, f.Redispatched)
	}
	if !f.TenantsOn {
		t.Fatal("tenanted trace did not flag TenantsOn on the merged report")
	}
	var req, comp, shed int
	for _, c := range overload.Classes() {
		cs := f.Classes[c]
		if cs.Completed+cs.Shed+cs.Orphaned != cs.Requests {
			t.Errorf("class %v leak: completed %d + shed %d + orphaned %d != requests %d",
				c, cs.Completed, cs.Shed, cs.Orphaned, cs.Requests)
		}
		if cs.Orphaned != 0 {
			t.Errorf("class %v left %d orphans after the failover fixed point", c, cs.Orphaned)
		}
		if cs.Requests == 0 {
			t.Errorf("class %v drew no requests from a 30/40/30 mix over 48 arrivals", c)
		}
		req += cs.Requests
		comp += cs.Completed
		shed += cs.Shed
	}
	if req != f.Requests || comp != f.Completed || shed != f.Shed {
		t.Errorf("class sums (req %d, comp %d, shed %d) disagree with fleet totals (%d, %d, %d)",
			req, comp, shed, f.Requests, f.Completed, f.Shed)
	}
	if !strings.Contains(f.String(), "class interactive") {
		t.Error("merged report is missing its per-class section")
	}
}

// TestBreakerTripsUnderFaults: under harsh failures the per-replica
// circuit breakers must trip, the trips must surface in the report, and
// the accounting invariant must survive the composed
// breaker-plus-failover routing.
func TestBreakerTripsUnderFaults(t *testing.T) {
	cfg := faultyConfig()
	cfg.Breaker = &overload.BreakerSpec{Window: 300, Threshold: 0.1, Cooldown: 60, Probes: 1}
	rep, err := Run(cfg, tenantedStream(t, 48))
	if err != nil {
		t.Fatal(err)
	}
	if rep.BreakerTrips == nil {
		t.Fatal("armed breaker produced no trip counts")
	}
	total := 0
	for _, n := range rep.BreakerTrips {
		total += n
	}
	if total == 0 {
		t.Error("MTBF 120 / MTTR 60 under a 10% threshold tripped no breaker")
	}
	f := rep.Fleet
	if f.Completed+f.Shed != f.Requests {
		t.Errorf("breaker routing leaked requests: %d + %d != %d", f.Completed, f.Shed, f.Requests)
	}
	if !strings.Contains(rep.String(), "breaker:") {
		t.Error("report is missing its breaker line")
	}
}

// TestBreakerRequiresFaults: the breaker's failure signal is the
// injected fault schedule, so arming it on a fault-free fleet is a
// configuration error.
func TestBreakerRequiresFaults(t *testing.T) {
	cfg := Config{Replica: testReplica(), Replicas: 2, Breaker: &overload.BreakerSpec{}}
	if _, err := Run(cfg, burstyStream(t, 4)); err == nil {
		t.Error("breaker without faults accepted")
	}
	cfg.Breaker = &overload.BreakerSpec{Threshold: 1.5}
	cfg.Faults = faults.Spec{MTBF: 600, MTTR: 60, Seed: 3}
	if _, err := Run(cfg, burstyStream(t, 4)); err == nil {
		t.Error("breaker threshold above 1 accepted")
	}
}

// TestOverloadFleetParallelDeterminism: the full rendered report of a
// tenanted, admission-controlled, breaker-armed faulty fleet is
// byte-identical at parallelism 1 and 8. Runs under -race in CI.
func TestOverloadFleetParallelDeterminism(t *testing.T) {
	cfg := faultyConfig()
	cfg.Breaker = &overload.BreakerSpec{Window: 300, Threshold: 0.1, Cooldown: 60, Probes: 1}
	cfg.Replica.Admission = &overload.AdmissionSpec{}
	cfg.Replica.Brownout = &overload.BrownoutSpec{Steps: overload.DefaultBrownoutSteps()}
	render := func() string {
		rep, err := Run(cfg, tenantedStream(t, 48))
		if err != nil {
			t.Fatal(err)
		}
		return rep.String()
	}
	defer runner.SetParallelism(0)
	runner.SetParallelism(1)
	serial := render()
	runner.SetParallelism(8)
	if parallel := render(); serial != parallel {
		t.Errorf("overloaded fleet diverges across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "class interactive") {
		t.Error("deterministic report is missing its per-class section")
	}
}

// TestPlanPriority prices a tenanted fleet against its shared twin and
// checks the sheet's internal consistency: one row per class in
// priority order, token-proportional prices that are positive for every
// class that completed work, and an isolation premium derived from the
// interactive row.
func TestPlanPriority(t *testing.T) {
	spec := PrioritySpec{
		Fleet: Config{Replica: testReplica(), Replicas: 2, Policy: JSQ},
		Trace: tenantedTrace(64),
	}
	spec.Fleet.Replica.Admission = &overload.AdmissionSpec{}
	res, err := PlanPriority(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Classes) != overload.NumClasses {
		t.Fatalf("sheet has %d rows, want %d", len(res.Classes), overload.NumClasses)
	}
	want := overload.Classes()
	var dollars float64
	for i, cp := range res.Classes {
		if cp.Class != want[i] {
			t.Errorf("row %d is %v, want %v", i, cp.Class, want[i])
		}
		if cp.Completed > 0 && cp.DollarsPer1k <= 0 {
			t.Errorf("class %v completed %d requests but priced at $%g/1k", cp.Class, cp.Completed, cp.DollarsPer1k)
		}
		dollars += cp.DollarsPer1k / 1000 * float64(cp.Completed)
	}
	// Attribution must conserve dollars: the class shares sum back to the
	// fleet's total bill.
	total := res.TenantedTCO.DollarsPer1k / 1000 * float64(res.Tenanted.Fleet.Completed)
	if diff := dollars - total; diff > 1e-9 || diff < -1e-9 {
		t.Errorf("attributed dollars %g != fleet total %g", dollars, total)
	}
	if res.IsolationPremium <= 0 {
		t.Errorf("isolation premium %g not computed", res.IsolationPremium)
	}
	if res.Shared.Fleet.TenantsOn {
		t.Error("shared baseline still tenanted — tags not erased")
	}
	out := res.String()
	if !strings.Contains(out, "isolation premium") || !strings.Contains(out, "class interactive") {
		t.Errorf("sheet rendering incomplete:\n%s", out)
	}
	if _, err := PlanPriority(PrioritySpec{Fleet: spec.Fleet, Trace: serve.TraceConfig{Kind: serve.Poisson, Rate: 1, Requests: 8}}); err == nil {
		t.Error("PlanPriority without tenants accepted")
	}
}

// TestPriorityVerdicts: a class that completed nothing of its requests
// missed its SLO, while a class the tenant mix leaves out had nothing to
// miss and renders "-".
func TestPriorityVerdicts(t *testing.T) {
	r := PriorityResult{Classes: []ClassPrice{
		{Class: overload.Interactive, Requests: 2, SLO: overload.DefaultSLO(overload.Interactive)},
		{Class: overload.Standard, SLO: overload.DefaultSLO(overload.Standard)},
		{Class: overload.BestEffort, Requests: 2, Completed: 2, SLO: overload.DefaultSLO(overload.BestEffort), SLOMet: true},
	}}
	lines := strings.Split(r.String(), "\n")
	for i, want := range []string{"  MISSED", "  -", "  met"} {
		if row := lines[1+i]; !strings.HasSuffix(row, want) {
			t.Errorf("row %q does not end in %q", row, want)
		}
	}
}
