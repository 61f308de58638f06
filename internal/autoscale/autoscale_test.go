package autoscale

import (
	"math"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/raceflag"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// baseCfg is the test fleet: a mid-size replica whose single-replica
// capacity sits well below the diurnal peak, so the controller has a
// real scaling decision to make.
func baseCfg() Config {
	return Config{
		Replica: serve.Config{
			Model:  model.Llama2_7B,
			Design: arch.Mugi(256),
			Mesh:   noc.Mesh{Rows: 4, Cols: 4},
		},
		MaxReplicas: 4,
	}
}

// weekTrace is a simulated week of diurnal arrivals: mean rate over a
// whole number of periods is the nominal rate, so requests ≈ rate ×
// 604800 spans seven days.
func weekTrace(rate float64) serve.TraceConfig {
	return serve.TraceConfig{
		Kind: serve.Diurnal, Rate: rate,
		Requests: int(rate * 7 * 86400),
		Seed:     42, Period: 86400,
	}
}

// TestCompareGoldenWeek pins the headline artifact of the package: the
// static-vs-dynamic comparison over a simulated week of diurnal
// arrivals, byte for byte. Any change to the scheduler, the DVFS cost
// fold, the leakage accounting or the pricing shows up here first.
func TestCompareGoldenWeek(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("week-long golden is minutes under the race detector; determinism is covered by TestDeterministicAtAnyParallelism")
	}
	cmp, err := Compare(baseCfg(), weekTrace(0.02))
	if err != nil {
		t.Fatal(err)
	}
	const want = `autoscale: Llama 2 7B on Mugi (256) 4x4, 4 replicas owned (min 1), policy target-util
trace: diurnal  12096 requests over 165.6 h
static:  $0.6211/day (capex 0.5568 + energy 0.0417 + carbon 0.0226)  avg 14.5 W  SLO violation 0.0 min
dynamic: $0.5770/day (capex 0.5568 + energy 0.0087 + carbon 0.0115)  avg 3.0 W  SLO violation 0.0 min
dynamic fleet: mean active 0.13 replicas  2 scale-ups  2 scale-downs  2624 DVFS shifts
replica-seconds: active 80299  idle 515813  booting 180  off 1788156
savings: $0.0442/day (7.1%)
`
	if got := cmp.String(); got != want {
		t.Errorf("golden week comparison drifted:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	if cmp.Dynamic.Completed != cmp.Dynamic.Requests {
		t.Errorf("completed %d of %d requests", cmp.Dynamic.Completed, cmp.Dynamic.Requests)
	}
	if cmp.SavingsPerDay <= 0 {
		t.Errorf("dynamic controller must beat the always-on baseline, savings $%.4f/day", cmp.SavingsPerDay)
	}
	checkReportInvariants(t, "golden week", cmp.Dynamic)
}

// TestDeterministicAtAnyParallelism runs the full comparison at runner
// parallelism 1 and 8 and requires byte-identical renderings — the
// controller is serial and the static side shards deterministically, so
// worker count must be invisible. Runs under -race too (a compressed
// trace keeps it fast).
func TestDeterministicAtAnyParallelism(t *testing.T) {
	cfg := baseCfg()
	tc := serve.TraceConfig{
		Kind: serve.Diurnal, Rate: 0.5, Requests: 1500, Seed: 7, Period: 3600,
	}
	cfg.Tick = 30
	defer runner.SetParallelism(0)
	runner.SetParallelism(1)
	a, err := Compare(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	runner.SetParallelism(8)
	b, err := Compare(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Errorf("comparison differs across parallelism:\n--- p=1 ---\n%s--- p=8 ---\n%s", a.String(), b.String())
	}
	if a.Dynamic.TotalEnergy != b.Dynamic.TotalEnergy ||
		a.Static.TotalEnergy != b.Static.TotalEnergy {
		t.Errorf("energy differs across parallelism: dynamic %v vs %v, static %v vs %v",
			a.Dynamic.TotalEnergy, b.Dynamic.TotalEnergy, a.Static.TotalEnergy, b.Static.TotalEnergy)
	}
}

// stepPolicy scales to a fixed schedule: hold replicas until switchAt,
// then target after. It lets tests force scale-downs mid-run.
type stepPolicy struct {
	before, after int
	switchAt      float64
}

func (p stepPolicy) Name() string { return "step" }
func (p stepPolicy) Decide(o Observation) Decision {
	n := p.before
	if o.Now >= p.switchAt {
		n = p.after
	}
	return Decision{Replicas: n, Point: o.Ladder[0]}
}

// TestDrainFinishesInFlight forces a 4→1 scale-down in the middle of a
// busy stream and checks the drained replicas finish their in-flight
// batches — every request completes, and the drained silicon ends up
// powered off.
func TestDrainFinishesInFlight(t *testing.T) {
	cfg := baseCfg()
	cfg.Policy = stepPolicy{before: 4, after: 1, switchAt: 600}
	cfg.ScaleUpLag = -1 // instant boots: the test is about draining
	tc := serve.TraceConfig{Kind: serve.Poisson, Rate: 0.5, Requests: 800, Seed: 11}
	rep, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("completed %d of %d: draining dropped requests", rep.Completed, rep.Requests)
	}
	if rep.ScaleDowns < 3 {
		t.Errorf("ScaleDowns = %d, want the 4→1 step to drain 3 replicas", rep.ScaleDowns)
	}
	if rep.OffSeconds == 0 {
		t.Errorf("drained replicas never reached Off")
	}
}

// TestBootLagDelaysCapacity pins the scale-up lag semantics: a policy
// that wants the whole fleet immediately pays exactly (MaxReplicas −
// MinReplicas) × lag of booting replica-seconds, and zero with
// InstantBoot-style zero lag.
func TestBootLagDelaysCapacity(t *testing.T) {
	run := func(lag float64) Report {
		cfg := baseCfg()
		cfg.Policy = stepPolicy{before: 4, after: 4}
		cfg.ScaleUpLag = lag
		tc := serve.TraceConfig{Kind: serve.Poisson, Rate: 0.3, Requests: 400, Seed: 3}
		rep, err := Run(cfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	lagged := run(300)
	if want := 3 * 300.0; math.Abs(lagged.BootSeconds-want) > 1e-9 {
		t.Errorf("BootSeconds = %.3f, want exactly %.1f (3 replicas × 300 s)", lagged.BootSeconds, want)
	}
	instant := run(-1)
	if instant.BootSeconds != 0 {
		t.Errorf("instant boots still booked %.3f boot seconds", instant.BootSeconds)
	}
	if lagged.LeakageEnergy <= instant.LeakageEnergy {
		t.Errorf("booting replicas must leak: lagged %.1f J <= instant %.1f J",
			lagged.LeakageEnergy, instant.LeakageEnergy)
	}
}

// TestOracleUsesForeknowledge: with instant boots and next-tick rates,
// the oracle's powered-seconds never exceed the always-max policy's,
// and it still completes everything.
func TestOracleUsesForeknowledge(t *testing.T) {
	tc := serve.TraceConfig{Kind: serve.Diurnal, Rate: 0.5, Requests: 2000, Seed: 9, Period: 3600}
	cfg := baseCfg()
	cfg.Policy = Oracle{}
	rep, err := Run(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed != rep.Requests {
		t.Fatalf("oracle completed %d of %d", rep.Completed, rep.Requests)
	}
	if rep.BootSeconds != 0 {
		t.Errorf("oracle boots are instant, booked %.3f boot seconds", rep.BootSeconds)
	}
	maxed := cfg
	maxed.Policy = stepPolicy{before: 4, after: 4}
	maxRep, err := Run(maxed, tc)
	if err != nil {
		t.Fatal(err)
	}
	oracleOn := rep.ActiveSeconds + rep.IdleSeconds
	maxOn := maxRep.ActiveSeconds + maxRep.IdleSeconds
	if oracleOn >= maxOn {
		t.Errorf("oracle powered %.0f replica-seconds, always-max %.0f — foreknowledge saved nothing", oracleOn, maxOn)
	}
}

// TestRunValidates rejects the configs the controller cannot honor.
func TestRunValidates(t *testing.T) {
	tc := serve.TraceConfig{Kind: serve.Poisson, Rate: 1, Requests: 4, Seed: 1}
	cases := []struct {
		name string
		mut  func(*Config)
	}{
		{"observe set", func(c *Config) {
			c.Replica.Observe = func(serve.Request, float64, float64) {}
		}},
		{"dvfs set", func(c *Config) { c.Replica.DVFS = arch.DVFSStep("p50", 0.5) }},
		{"admission set", func(c *Config) { c.Replica.Admission = &overload.AdmissionSpec{} }},
		{"brownout set", func(c *Config) {
			c.Replica.Brownout = &overload.BrownoutSpec{Steps: overload.DefaultBrownoutSteps()}
		}},
		{"client retry set", func(c *Config) { c.Replica.ClientRetry = overload.ClientRetrySpec{MaxAttempts: 2} }},
		{"min zero", func(c *Config) { c.MinReplicas = -1 }},
		{"max below min", func(c *Config) { c.MinReplicas = 3; c.MaxReplicas = 2 }},
		{"max huge", func(c *Config) { c.MaxReplicas = MaxControllerReplicas + 1 }},
		{"bad tick", func(c *Config) { c.Tick = -1 }},
		{"ladder without nominal", func(c *Config) {
			c.Ladder = []arch.DVFSPoint{arch.DVFSStep("p50", 0.5)}
		}},
	}
	for _, tt := range cases {
		cfg := baseCfg()
		tt.mut(&cfg)
		if _, err := Run(cfg, tc); err == nil {
			t.Errorf("%s: Run accepted an invalid config", tt.name)
		}
	}
}

// TestPowerStateStrings pins the state machine's vocabulary.
func TestPowerStateStrings(t *testing.T) {
	want := map[PowerState]string{
		Off: "off", Booting: "booting", Idle: "idle", Active: "active", Draining: "draining",
	}
	for s, name := range want {
		if s.String() != name {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), name)
		}
	}
	if !strings.Contains(PowerState(99).String(), "99") {
		t.Errorf("unknown state should render its number")
	}
}
