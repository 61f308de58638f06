package fleet

import (
	"errors"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/faults"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// faultyConfig is the shared harsh-failure fleet the accounting and
// determinism tests run: three replicas under MTBF two minutes, MTTR one
// minute, one re-dispatch per request — enough churn that crashes,
// failover, and budget-exhausted shedding all occur on a ~50-request
// trace.
func faultyConfig() Config {
	return Config{
		Replica: testReplica(), Replicas: 3, Policy: JSQ,
		Faults:        faults.Spec{MTBF: 120, MTTR: 60, Seed: 7},
		MaxRedispatch: 1,
	}
}

func faultyStream(t *testing.T, requests int) serve.Stream {
	t.Helper()
	src, err := serve.NewStream(serve.TraceConfig{
		Kind: serve.Bursty, Rate: 0.15, Requests: requests, Seed: testSeed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// TestFaultyFleetAccounting pins the no-silent-drop invariant at fleet
// level: under crashes, failover, and budget-exhausted shedding, every
// offered request ends the run completed or shed — never double-served
// (availability must not exceed 1) and never lost.
func TestFaultyFleetAccounting(t *testing.T) {
	rep, err := Run(faultyConfig(), faultyStream(t, 48))
	if err != nil {
		t.Fatal(err)
	}
	f := rep.Fleet
	if f.Crashes == 0 {
		t.Fatal("no crashes at MTBF 120 over a ~20-minute trace — schedules not wired")
	}
	if f.Completed+f.Shed != f.Requests {
		t.Errorf("accounting leak: completed %d + shed %d != requests %d", f.Completed, f.Shed, f.Requests)
	}
	if f.Shed == 0 {
		t.Error("one-redispatch budget under harsh faults shed nothing")
	}
	if f.Redispatched == 0 {
		t.Error("crashes orphaned work but nothing failed over")
	}
	if f.Orphaned != 0 {
		t.Errorf("fleet report left %d orphans dangling", f.Orphaned)
	}
	if !f.FaultsOn || f.Availability <= 0 || f.Availability > 1 {
		t.Errorf("availability %g (faultsOn=%v) out of range", f.Availability, f.FaultsOn)
	}
	if !strings.Contains(f.String(), "availability:") {
		t.Error("faulty fleet report is missing its availability section")
	}
	// Per-replica detail must agree with the merged picture.
	var comp, shed int
	for _, r := range rep.Replicas {
		comp += r.Completed
		shed += r.Shed
	}
	if comp != f.Completed {
		t.Errorf("per-replica completions %d != fleet %d", comp, f.Completed)
	}
	if shed > f.Shed {
		t.Errorf("per-replica shed %d exceeds fleet total %d", shed, f.Shed)
	}
}

// TestZeroFaultFleetMatchesGolden pins the byte-identity gate: a fleet
// config carrying a zero-rate fault spec takes the fault-free path and
// renders exactly the bytes of a config with no spec at all.
func TestZeroFaultFleetMatchesGolden(t *testing.T) {
	plain, err := Run(Config{Replica: testReplica(), Replicas: 3, Policy: JSQ}, burstyStream(t, 48))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Replica: testReplica(), Replicas: 3, Policy: JSQ, Faults: faults.Spec{Seed: 42}}
	injected, err := Run(cfg, burstyStream(t, 48))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := injected.String(), plain.String(); got != want {
		t.Errorf("zero-fault fleet diverges from the no-faults path:\n--- injected ---\n%s\n--- plain ---\n%s", got, want)
	}
	if injected.Fleet.FaultsOn {
		t.Error("zero-rate spec flagged the fleet run as faulty")
	}
}

// TestFaultyFleetParallelDeterminism is the faulty-week contract: the
// full rendered report of a crashing, failing-over fleet — stragglers
// and transient errors included — is byte-identical at parallelism 1
// and 8. Runs under -race in CI.
func TestFaultyFleetParallelDeterminism(t *testing.T) {
	cfg := faultyConfig()
	cfg.Faults.StragglerProb = 0.3
	cfg.Faults.TransientProb = 0.05
	render := func() string {
		rep, err := Run(cfg, faultyStream(t, 48))
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
		t.Errorf("faulty fleet diverges across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "availability:") {
		t.Error("faulty fleet report is missing its availability section")
	}
}

// TestFaultConfigValidation covers the faulty router's failure modes.
// The router owns every replica's fault schedule and failover policy, so
// a Replica.Faults or Replica.Retry is rejected with an error naming the
// field, with or without Config.Faults: a schedule handed to every
// replica would be drawn from concurrently, and a retry policy nothing
// reads would be silently ignored.
func TestFaultConfigValidation(t *testing.T) {
	s, err := faults.New(faults.Spec{MTBF: 50, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name, field string // field, when set, is what the error must name
		mut         func(*Config)
	}{
		{"negative MTBF", "", func(c *Config) { c.Faults.MTBF = -1 }},
		{"negative redispatch budget", "", func(c *Config) { c.MaxRedispatch = -1 }},
		{"negative failover delay", "", func(c *Config) { c.FailoverDelay = -1 }},
		{"both schedules", "Replica.Faults", func(c *Config) { c.Replica.Faults = s }},
		{"replica schedule only", "Replica.Faults", func(c *Config) { c.Faults = faults.Spec{}; c.Replica.Faults = s }},
		{"replica retry", "Replica.Retry", func(c *Config) { c.Replica.Retry.MaxRedispatch = 2 }},
		{"replica retry without faults", "Replica.Retry", func(c *Config) { c.Faults = faults.Spec{}; c.Replica.Retry.Delay = 1 }},
	}
	for _, row := range rows {
		cfg := Config{Replica: testReplica(), Replicas: 2, Faults: faults.Spec{MTBF: 100}}
		row.mut(&cfg)
		if _, err := Run(cfg, burstyStream(t, 4)); err == nil || !strings.Contains(err.Error(), row.field) {
			t.Errorf("%s: err %v, want an error naming %q", row.name, err, row.field)
		}
	}
}

// ninesSpec is the shared price-of-nines sweep: one design, two spare
// levels, harsh faults.
func ninesSpec() NinesSpec {
	return NinesSpec{
		Base:   serve.Config{Model: testReplica().Model},
		Cells:  []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 2}},
		Spares: []int{0, 1, 2},
		Policy: JSQ,
		Trace:  serve.TraceConfig{Kind: serve.Bursty, Rate: 0.15, Requests: 48, Seed: testSeed},
		Faults: faults.Spec{MTBF: 120, MTTR: 60, Seed: 7},
	}
}

// TestPlanNinesSparesBuyAvailability pins the headline price-of-nines
// behavior: on a fixed faulty trace, adding spare replicas must not
// lower availability, and each point's price reflects the whole owned
// fleet (spares included).
func TestPlanNinesSparesBuyAvailability(t *testing.T) {
	results := PlanNines(ninesSpec())
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("point %d (%d spares): %v", i, r.Spares, r.Err)
		}
		if r.Availability <= 0 || r.Availability > 1 {
			t.Errorf("point %d availability %g out of range", i, r.Availability)
		}
		if r.DollarsPer1k <= 0 {
			t.Errorf("point %d priced at $%g/1k", i, r.DollarsPer1k)
		}
		if i > 0 {
			if r.Availability < results[i-1].Availability {
				t.Errorf("spares %d availability %.4f below spares %d availability %.4f",
					r.Spares, r.Availability, results[i-1].Spares, results[i-1].Availability)
			}
			if r.TCO.FleetCapex <= results[i-1].TCO.FleetCapex {
				t.Errorf("spares %d fleet capex %.2f not above spares %d capex %.2f",
					r.Spares, r.TCO.FleetCapex, results[i-1].Spares, results[i-1].TCO.FleetCapex)
			}
		}
	}
	// The rendered rows must carry the availability and price columns.
	for _, r := range results {
		s := r.String()
		if !strings.Contains(s, "availability") || !strings.Contains(s, "/1k") {
			t.Errorf("row rendering incomplete: %q", s)
		}
	}
}

// TestNinesFrontierAndTarget covers the frontier pruning and the
// cheapest-meeting-target lookup.
// TestNinesFrontierPrunesAndKeepsTieOrder pins NinesFrontier's dominance
// rule and tie order on a synthetic table: an errored point never
// survives (this one would dominate every other), a pricier point with
// no more availability drops, the lower of an equal-price pair drops,
// and a full tie survives in input order.
func TestNinesFrontierPrunesAndKeepsTieOrder(t *testing.T) {
	at := func(name string, dollarsPer1k, availability float64) NinesResult {
		return NinesResult{Design: name, Mesh: "1x1", Replicas: 1, DollarsPer1k: dollarsPer1k, Availability: availability}
	}
	results := []NinesResult{
		at("dear", 5, 0.999),
		at("tie-first", 4, 0.99),
		at("tie-second", 4, 0.99),
		at("pair-lower", 3, 0.95),
		at("pair-upper", 3, 0.97),
		at("dominated", 2, 0.9),
		{Design: "errored", DollarsPer1k: 0.5, Availability: 0.9999, Err: errors.New("point died")},
		at("base", 1, 0.9),
	}
	var got []string
	for _, r := range NinesFrontier(results) {
		got = append(got, r.Design)
	}
	want := []string{"base", "pair-upper", "tie-first", "tie-second", "dear"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("frontier %v, want %v", got, want)
	}
}

func TestNinesFrontierAndTarget(t *testing.T) {
	results := PlanNines(ninesSpec())
	frontier := NinesFrontier(results)
	if len(frontier) == 0 || len(frontier) > len(results) {
		t.Fatalf("frontier has %d of %d points", len(frontier), len(results))
	}
	for i := 1; i < len(frontier); i++ {
		if frontier[i].DollarsPer1k < frontier[i-1].DollarsPer1k {
			t.Error("frontier not sorted by ascending price")
		}
		if frontier[i].Availability <= frontier[i-1].Availability {
			t.Error("frontier point dominated: paying more must buy more availability")
		}
	}
	// Every planned point is reachable as a target.
	for _, r := range results {
		got, ok := CheapestAtLeast(results, r.Availability)
		if !ok {
			t.Fatalf("no point meets availability %.4f, but one produced it", r.Availability)
		}
		if got.Availability < r.Availability {
			t.Errorf("CheapestAtLeast(%.4f) returned availability %.4f", r.Availability, got.Availability)
		}
	}
	if _, ok := CheapestAtLeast(results, 1.1); ok {
		t.Error("impossible availability target met")
	}
}
