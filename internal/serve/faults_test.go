package serve

import (
	"math"
	"strings"
	"testing"

	"mugi/internal/faults"
	"mugi/internal/noc"
)

// zeroSchedule is a fault schedule whose every rate is zero — the
// injection layer wired up but injecting nothing.
func zeroSchedule(t *testing.T) *faults.Schedule {
	t.Helper()
	s, err := faults.New(faults.Spec{Seed: 99}, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestZeroFaultRunMatchesGolden is the satellite byte-identity contract:
// a run with a zero-fault-rate schedule attached renders exactly the
// bytes of the existing no-faults path — no availability section, no
// numeric drift.
func TestZeroFaultRunMatchesGolden(t *testing.T) {
	tr := chatTrace(t, 0.5, 24)
	plain, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Faults = zeroSchedule(t)
	injected, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := injected.String(), plain.String(); got != want {
		t.Errorf("zero-fault injection diverges from the no-faults path:\n--- injected ---\n%s\n--- plain ---\n%s", got, want)
	}
	if injected.FaultsOn {
		t.Error("zero-rate schedule flagged the run as faulty")
	}
}

// faultySchedule returns a schedule aggressive enough that a
// minutes-long trace lives through several crashes. The replica under
// test sustains only ~0.03 req/s (one chat request is ~30 s of decode
// steps), so fault tests keep the offered rate well below that — above
// capacity every crash orphans the whole backlog and the run collapses
// into shedding, which is a different regime than these tests pin.
func faultySchedule(t *testing.T, spec faults.Spec) *faults.Schedule {
	t.Helper()
	s, err := faults.New(spec, 0)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCrashOrphansAreAccounted drives a single replica through crashes
// with local retries and pins the no-silent-drop invariant: every
// arrival ends the run completed or shed, and the availability section
// renders.
func TestCrashOrphansAreAccounted(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = faultySchedule(t, faults.Spec{MTBF: 250, MTTR: 25, Seed: 5})
	cfg.Retry.MaxRedispatch = 8
	tr := chatTrace(t, 0.015, 20)
	rep, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes == 0 {
		t.Fatal("no crashes at MTBF 250 over a ~20-minute trace — schedule not wired")
	}
	if rep.Completed+rep.Shed != rep.Requests {
		t.Errorf("accounting leak: completed %d + shed %d != requests %d",
			rep.Completed, rep.Shed, rep.Requests)
	}
	if rep.Orphaned != 0 {
		t.Errorf("local-retry run handed off %d orphans", rep.Orphaned)
	}
	if rep.Redispatched == 0 {
		t.Error("crashes orphaned work but nothing was redispatched")
	}
	if !rep.FaultsOn || rep.Availability <= 0 || rep.Availability > 1 {
		t.Errorf("availability %g (faultsOn=%v) out of range", rep.Availability, rep.FaultsOn)
	}
	if !strings.Contains(rep.String(), "availability:") {
		t.Error("faulty report is missing its availability section")
	}
}

// TestTinyUpTimesStillAdvance: with a 1e-7 s MTBF and a 1e9 s MTTR the
// clock soon passes the point where one ULP exceeds an up draw, and the
// schedule must still start every down window after the previous one
// ends. Abutting windows used to crash a replica at every pass of the
// serving loop without advancing its clock, so the run never returned.
// The window check comes first, so a regression fails here instead of
// hanging in the run below.
func TestTinyUpTimesStillAdvance(t *testing.T) {
	spec := faults.Spec{MTBF: 1e-7, MTTR: 1e9}
	s := faultySchedule(t, spec)
	prev, _ := s.DownAfter(0)
	for i := 1; i < 1000; i++ {
		iv, _ := s.DownAfter(prev.End)
		if !(iv.Start > prev.End) {
			t.Fatalf("window %d starts at %v, not after the previous end %v", i, iv.Start, prev.End)
		}
		prev = iv
	}
	cfg := baseConfig()
	cfg.Faults = faultySchedule(t, spec)
	rep, err := Run(cfg, chatTrace(t, 0.5, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Completed+rep.Shed != rep.Requests {
		t.Errorf("accounting leak: completed %d + shed %d != requests %d",
			rep.Completed, rep.Shed, rep.Requests)
	}
}

// TestHandOffReturnsOrphans pins the fleet-facing contract: with HandOff
// set, crash-interrupted requests come back in RunStats.Orphans instead
// of retrying locally, and the per-replica accounting includes them.
func TestHandOffReturnsOrphans(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = faultySchedule(t, faults.Spec{MTBF: 250, MTTR: 25, Seed: 5})
	cfg.Retry = RetryPolicy{HandOff: true}
	var st RunStats
	if err := RunStreamStats(cfg, chatTrace(t, 0.015, 20).Stream(), nil, &st); err != nil {
		t.Fatal(err)
	}
	rep := st.Report
	if rep.Orphaned == 0 || len(st.Orphans) != rep.Orphaned {
		t.Fatalf("orphan accounting: report %d, stats %d", rep.Orphaned, len(st.Orphans))
	}
	if rep.Completed+rep.Shed+rep.Orphaned != rep.Requests {
		t.Errorf("accounting leak: %d + %d + %d != %d",
			rep.Completed, rep.Shed, rep.Orphaned, rep.Requests)
	}
	for i, o := range st.Orphans {
		if o.At < 0 || o.Req.Output < 1 {
			t.Fatalf("orphan %d malformed: %+v", i, o)
		}
	}
}

// TestTransientErrorsRetryAndConverge exercises the transient-error
// model: a high injected rate forces retries, the attempt counter keeps
// draws fresh so requests eventually pass or shed, and nothing is lost.
func TestTransientErrorsRetryAndConverge(t *testing.T) {
	cfg := baseConfig()
	cfg.Faults = faultySchedule(t, faults.Spec{TransientProb: 0.3, Seed: 17})
	rep, err := Run(cfg, chatTrace(t, 0.5, 64))
	if err != nil {
		t.Fatal(err)
	}
	if rep.TransientErrors == 0 {
		t.Fatal("no transient errors at probability 0.3 over 64 requests")
	}
	if rep.Completed+rep.Shed != rep.Requests {
		t.Errorf("accounting leak: completed %d + shed %d != requests %d",
			rep.Completed, rep.Shed, rep.Requests)
	}
}

// TestStragglerStretchesMakespan pins the slow-node model: a straggler
// replica (probability 1) serves the same trace strictly slower, with
// identical token totals.
func TestStragglerStretchesMakespan(t *testing.T) {
	tr := chatTrace(t, 0.5, 24)
	healthy, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Faults = faultySchedule(t, faults.Spec{StragglerProb: 1, StragglerFactor: 3, Seed: 1})
	slow, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if slow.Slowdown != 3 {
		t.Fatalf("slowdown %g, want 3", slow.Slowdown)
	}
	if slow.Makespan <= healthy.Makespan {
		t.Errorf("straggler makespan %g not above healthy %g", slow.Makespan, healthy.Makespan)
	}
	if slow.OutputTokens != healthy.OutputTokens {
		t.Errorf("straggler delivered %d tokens, healthy %d", slow.OutputTokens, healthy.OutputTokens)
	}
}

// TestBoundedQueueSheds pins graceful degradation: an overload trace
// against a tiny bounded queue sheds with accounting instead of growing
// the backlog, and older queued work keeps priority.
func TestBoundedQueueSheds(t *testing.T) {
	cfg := baseConfig()
	cfg.MaxQueue = 2
	rep, err := Run(cfg, chatTrace(t, 50, 64)) // far beyond one replica's capacity
	if err != nil {
		t.Fatal(err)
	}
	if rep.ShedOverload == 0 {
		t.Fatal("overload against MaxQueue=2 shed nothing")
	}
	if rep.Shed != rep.ShedOverload {
		t.Errorf("shed %d != overload shed %d with no faults injected", rep.Shed, rep.ShedOverload)
	}
	if rep.Completed+rep.Shed != rep.Requests {
		t.Errorf("accounting leak: completed %d + shed %d != requests %d",
			rep.Completed, rep.Shed, rep.Requests)
	}
	if rep.PeakQueue > cfg.MaxQueue {
		t.Errorf("peak queue %d exceeded bound %d", rep.PeakQueue, cfg.MaxQueue)
	}
	if !rep.FaultsOn {
		t.Error("bounded-queue run did not render availability accounting")
	}
}

// TestBadConfigsReturnErrors is the satellite table test: invalid
// configurations surface as returned errors at the library boundary, not
// panics from deeper layers.
func TestBadConfigsReturnErrors(t *testing.T) {
	tr := chatTrace(t, 0.5, 4)
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"negative max batch", func(c *Config) { c.MaxBatch = -1 }},
		{"negative kv budget", func(c *Config) { c.KVBudgetBytes = -1 }},
		{"negative ctx bucket", func(c *Config) { c.CtxBucket = -8 }},
		{"negative bandwidth", func(c *Config) { c.Bandwidth = -1 }},
		{"negative noc bandwidth", func(c *Config) { c.NoCBandwidth = -1 }},
		{"negative max queue", func(c *Config) { c.MaxQueue = -1 }},
		{"negative redispatch bound", func(c *Config) { c.Retry.MaxRedispatch = -2 }},
		{"negative retry delay", func(c *Config) { c.Retry.Delay = -1 }},
		{"empty model", func(c *Config) { c.Model.Layers = 0 }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		c.mutate(&cfg)
		if _, err := Run(cfg, tr); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// TestNaNConfigsReturnErrors: NaN passes every `x < 0` bound, so a NaN
// bandwidth used to price memory as free and a NaN retry delay failed
// the run late with a truncated stream. Each NaN field must fail
// validation with an error naming it, while +Inf keeps its meaning (an
// unbounded link).
func TestNaNConfigsReturnErrors(t *testing.T) {
	nan := math.NaN()
	faulty := faultySchedule(t, faults.Spec{MTBF: 300, MTTR: 60, TransientProb: 0.2, Seed: 4})
	tr, err := NewTrace(TraceConfig{Kind: Poisson, Rate: 0.3, Requests: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		field  string
		mutate func(*Config)
	}{
		{"Bandwidth", func(c *Config) { c.Bandwidth = nan }},
		{"NoCBandwidth", func(c *Config) { c.NoCBandwidth = nan }},
		{"Retry.Delay", func(c *Config) { c.Retry.Delay = nan; c.Faults = faulty }},
	}
	for _, c := range cases {
		cfg := baseConfig()
		cfg.Mesh = noc.NewMesh(8, 8)
		c.mutate(&cfg)
		if _, err := Run(cfg, tr); err == nil || !strings.Contains(err.Error(), c.field+" NaN") {
			t.Errorf("%s = NaN: error %v, want one naming the field", c.field, err)
		}
	}
	for _, mutate := range []func(*Config){
		func(c *Config) { c.Bandwidth = math.Inf(1) },
		func(c *Config) { c.NoCBandwidth = math.Inf(1) },
	} {
		cfg := baseConfig()
		cfg.Mesh = noc.NewMesh(8, 8)
		mutate(&cfg)
		if _, err := Run(cfg, chatTrace(t, 0.5, 4)); err != nil {
			t.Errorf("infinite bandwidth: %v", err)
		}
	}
}
