package autoscale

import (
	"math"
	"strings"
	"testing"

	"mugi/internal/faults"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// dayTrace is one simulated day of diurnal arrivals — long enough for an
// MTBF-of-hours fault spec to land several crashes, short enough to run
// under -race.
func dayTrace(rate float64) serve.TraceConfig {
	return serve.TraceConfig{
		Kind: serve.Diurnal, Rate: rate,
		Requests: int(rate * 86400),
		Seed:     42, Period: 86400,
	}
}

// faultyCfg is the shared faulty-controller scenario: crashes every ~2
// hours per replica with 10-minute repairs, some stragglers, one boot
// attempt in five failing.
func faultyCfg() Config {
	cfg := baseCfg()
	cfg.Faults = faults.Spec{MTBF: 7200, MTTR: 600, StragglerProb: 0.3, BootFailProb: 0.2, Seed: 7}
	return cfg
}

// TestFaultyControllerAccounting drives the controller through a day of
// crashes, boot failures and stragglers and pins the no-silent-drop
// invariant plus the replica-seconds partition (Failed/Repairing time
// must be accounted like every other state).
func TestFaultyControllerAccounting(t *testing.T) {
	rep, err := Run(faultyCfg(), dayTrace(0.02))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes at MTBF 2 h over a simulated day — schedules not wired")
	}
	if rep.BootFailures == 0 {
		t.Error("no boot failures at probability 0.2 across a day of scale-ups")
	}
	if rep.Stragglers == 0 {
		t.Error("no stragglers at probability 0.3 over 4 replicas")
	}
	if rep.Completed+rep.Shed != rep.Requests {
		t.Errorf("accounting leak: completed %d + shed %d != requests %d", rep.Completed, rep.Shed, rep.Requests)
	}
	if rep.Redispatched == 0 {
		t.Error("crashes orphaned batches but nothing was re-queued")
	}
	if !rep.FaultsOn || rep.Availability <= 0 || rep.Availability > 1 {
		t.Errorf("availability %g (faultsOn=%v) out of range", rep.Availability, rep.FaultsOn)
	}
	if rep.FailedSeconds <= 0 {
		t.Error("crashes occurred but no Failed/Repairing time accrued")
	}
	total := rep.ActiveSeconds + rep.IdleSeconds + rep.BootSeconds + rep.OffSeconds + rep.FailedSeconds
	wantTotal := float64(rep.MaxReplicas) * rep.Horizon
	if math.Abs(total-wantTotal) > 1e-6*wantTotal {
		t.Errorf("state seconds %.3f do not partition %d×%.3f = %.3f", total, rep.MaxReplicas, rep.Horizon, wantTotal)
	}
}

// TestZeroFaultControllerMatchesGolden pins the byte-identity gate: a
// zero-rate fault spec takes the fault-free path and renders exactly the
// bytes of a config with no spec at all — no availability section, no
// numeric drift from the ×1.0 straggler multiplier.
func TestZeroFaultControllerMatchesGolden(t *testing.T) {
	tc := dayTrace(0.02)
	plain, err := Compare(baseCfg(), tc)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseCfg()
	cfg.Faults = faults.Spec{Seed: 99}
	injected, err := Compare(cfg, tc)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := injected.String(), plain.String(); got != want {
		t.Errorf("zero-fault controller diverges from the no-faults path:\n--- injected ---\n%s\n--- plain ---\n%s", got, want)
	}
	if injected.Dynamic.FaultsOn {
		t.Error("zero-rate spec flagged the controller run as faulty")
	}
	if strings.Contains(injected.String(), "availability:") {
		t.Error("fault-free comparison rendered an availability section")
	}
}

// TestFaultyComparisonDeterminism renders the full faulty comparison —
// the dynamic controller plus the failing-over static baseline — at
// parallelism 1 and 8 and requires byte identity. Runs under -race in
// CI.
func TestFaultyComparisonDeterminism(t *testing.T) {
	tc := dayTrace(0.02)
	render := func() string {
		cmp, err := Compare(faultyCfg(), tc)
		if err != nil {
			t.Fatal(err)
		}
		return cmp.String()
	}
	defer runner.SetParallelism(0)
	runner.SetParallelism(1)
	serial := render()
	runner.SetParallelism(8)
	if parallel := render(); serial != parallel {
		t.Errorf("faulty comparison diverges across parallelism levels:\n--- serial ---\n%s\n--- parallel ---\n%s", serial, parallel)
	}
	if !strings.Contains(serial, "availability:") || !strings.Contains(serial, "crashes") {
		t.Errorf("faulty comparison is missing its faults section:\n%s", serial)
	}
}

// TestFaultValidation covers the controller's fault-config failure
// modes, and the replica knobs it does not honor: the controller owns
// the fault schedules, re-queues crash orphans by Config.MaxRedispatch
// and never bounds its queue, so a Replica.Faults, Replica.Retry or
// Replica.MaxQueue is rejected with an error naming the field instead
// of being silently ignored.
func TestFaultValidation(t *testing.T) {
	s, err := faults.New(faults.Spec{MTBF: 50, Seed: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name, field string // field, when set, is what the error must name
		mut         func(*Config)
	}{
		{"negative MTBF", "", func(c *Config) { c.Faults = faults.Spec{MTBF: -1} }},
		{"negative redispatch budget", "", func(c *Config) { c.MaxRedispatch = -1 }},
		{"both schedules", "Replica.Faults", func(c *Config) {
			c.Faults = faults.Spec{MTBF: 7200, Seed: 1}
			c.Replica.Faults = s
		}},
		{"replica schedule only", "Replica.Faults", func(c *Config) { c.Replica.Faults = s }},
		{"replica max queue", "Replica.MaxQueue", func(c *Config) { c.Replica.MaxQueue = 1 }},
		{"replica retry", "Replica.Retry", func(c *Config) { c.Replica.Retry.MaxRedispatch = 2 }},
	}
	for _, row := range rows {
		cfg := baseCfg()
		row.mut(&cfg)
		if _, err := Run(cfg, dayTrace(0.02)); err == nil || !strings.Contains(err.Error(), row.field) {
			t.Errorf("%s: err %v, want an error naming %q", row.name, err, row.field)
		}
	}
}
