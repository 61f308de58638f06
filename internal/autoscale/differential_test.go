package autoscale

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mugi/internal/model"
	"mugi/internal/overload"
	"mugi/internal/serve"
	"mugi/internal/sim"
)

// TestSingleReplicaMatchesServe is the differential check between the
// controller and the serving scheduler: a fault-free controller pinned at
// one replica on the nominal operating point is one continuous-batching
// batch behind one queue, exactly serve.RunStream, so every request-level
// number must match bit for bit. The later rows stop serve's rounds at a
// full batch with a waiting queue, a KV-deferred queue head, and context
// bucket edges (CtxBucket 1, and 7 with a MaxSeq clamp that is not a
// bucket multiple).
func TestSingleReplicaMatchesServe(t *testing.T) {
	rows := []struct {
		tc  serve.TraceConfig
		mut func(*serve.Config)
	}{
		{serve.TraceConfig{Kind: serve.Poisson, Rate: 0.3, Requests: 400, Seed: 3}, nil},
		{serve.TraceConfig{Kind: serve.Bursty, Rate: 0.5, Requests: 600, Seed: 11}, nil},
		{serve.TraceConfig{Kind: serve.Diurnal, Rate: 0.5, Requests: 800, Seed: 9, Period: 1800}, nil},
		{serve.TraceConfig{Kind: serve.Poisson, Rate: 2, Requests: 300, Seed: 5}, func(c *serve.Config) { c.MaxBatch = 4 }},
		{serve.TraceConfig{Kind: serve.Poisson, Rate: 2, Requests: 300, Seed: 6}, func(c *serve.Config) { c.KVBudgetBytes = 1 << 30 }},
		{serve.TraceConfig{Kind: serve.Bursty, Rate: 0.5, Requests: 300, Seed: 7}, func(c *serve.Config) { c.CtxBucket = 1 }},
		{serve.TraceConfig{Kind: serve.Poisson, Rate: 0.5, Requests: 300, Seed: 8, Lengths: serve.RAGLengths()},
			func(c *serve.Config) { c.CtxBucket = 7 }},
	}
	for _, row := range rows {
		tc := row.tc
		name := fmt.Sprintf("%s seed %d", tc.Kind, tc.Seed)
		cfg := baseCfg()
		if row.mut != nil {
			row.mut(&cfg.Replica)
		}
		cfg.MinReplicas, cfg.MaxReplicas = 1, 1
		cfg.Policy = stepPolicy{before: 1, after: 1}
		got, err := Run(cfg, tc)
		if err != nil {
			t.Fatal(err)
		}
		src, err := serve.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		want, err := serve.RunStream(cfg.Replica, src)
		if err != nil {
			t.Fatal(err)
		}
		if got.Completed != want.Completed {
			t.Errorf("%s: completed %d, serve %d", name, got.Completed, want.Completed)
		}
		if got.TTFT != want.TTFT {
			t.Errorf("%s: TTFT %+v, serve %+v", name, got.TTFT, want.TTFT)
		}
		if got.Latency != want.Latency {
			t.Errorf("%s: latency %+v, serve %+v", name, got.Latency, want.Latency)
		}
		if got.DynamicEnergy != want.DynamicEnergy {
			t.Errorf("%s: dynamic energy %v J, serve %v J", name, got.DynamicEnergy, want.DynamicEnergy)
		}
		if got.PrefillSteps != want.PrefillSteps || got.DecodeSteps != want.DecodeSteps {
			t.Errorf("%s: steps %d prefill / %d decode, serve %d / %d", name,
				got.PrefillSteps, got.DecodeSteps, want.PrefillSteps, want.DecodeSteps)
		}
		if got.MeanBatch != want.MeanBatch {
			t.Errorf("%s: mean batch %v, serve %v", name, got.MeanBatch, want.MeanBatch)
		}
		if got.PeakQueue != want.PeakQueue {
			t.Errorf("%s: peak queue %d, serve %d", name, got.PeakQueue, want.PeakQueue)
		}
	}
}

// TestRejectsBadStepCosts: a step function that returns a negative or
// non-finite latency or energy must fail the run with an error naming
// the step shape — through serve.RunStream and through the controller
// alike — instead of yielding NaN or negative report numbers. The
// off-nominal rows also guard the operating point in the step-cost
// table's key: a cost bad only at a slowed clock must not be masked by
// the same shape priced at nominal.
func TestRejectsBadStepCosts(t *testing.T) {
	tc := serve.TraceConfig{Kind: serve.Poisson, Rate: 0.3, Requests: 60, Seed: 3}
	// A flash crowd whose sound run walks serve's brownout ladder down to
	// the p75 DVFS rung (level 3 of DefaultBrownoutSteps).
	crowd := serve.TraceConfig{Kind: serve.Flashcrowd, Rate: 2, Requests: 240, Seed: 3}
	brownout := baseCfg().Replica
	brownout.Brownout = &overload.BrownoutSpec{}
	src, err := serve.NewStream(crowd)
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := serve.RunStream(brownout, src); err != nil || rep.BrownoutMaxLevel != 3 {
		t.Fatalf("sound brownout run: level %d, error %v; want level 3", rep.BrownoutMaxLevel, err)
	}
	bad := []struct {
		name string
		mut  func(*sim.Result)
	}{
		{"NaN seconds", func(r *sim.Result) { r.Seconds = math.NaN() }},
		{"negative seconds", func(r *sim.Result) { r.Seconds = -1 }},
		{"infinite seconds", func(r *sim.Result) { r.Seconds = math.Inf(1) }},
		{"NaN energy", func(r *sim.Result) { r.DynamicEnergy = math.NaN() }},
		{"negative energy", func(r *sim.Result) { r.DynamicEnergy = -1 }},
		{"infinite energy", func(r *sim.Result) { r.DynamicEnergy = math.Inf(1) }},
	}
	for _, tt := range bad {
		cfg := baseCfg()
		cfg.Replica.Simulate = func(p sim.Params, w model.Workload) sim.Result {
			res := sim.Simulate(p, w)
			tt.mut(&res)
			return res
		}
		src, err := serve.NewStream(tc)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serve.RunStream(cfg.Replica, src); err == nil || !strings.Contains(err.Error(), "step (batch 1, context") {
			t.Errorf("%s: serve.RunStream error %v, want one naming the step shape", tt.name, err)
		}
		if _, err := Run(cfg, tc); err == nil || !strings.Contains(err.Error(), "step (batch 1, context") {
			t.Errorf("%s: Run error %v, want one naming the step shape", tt.name, err)
		}
		// A cost that turns bad only off the nominal point passes the
		// calibration search and must fail the controller's own rounds
		// once the policy slows the fleet down, and serve's rounds once
		// brownout downshifts the clock.
		cfg.Replica.Simulate = func(p sim.Params, w model.Workload) sim.Result {
			res := sim.Simulate(p, w)
			if !p.DVFS.IsNominal() {
				tt.mut(&res)
			}
			return res
		}
		cfg.Policy = slowestPolicy{}
		if _, err := Run(cfg, tc); err == nil || !strings.Contains(err.Error(), "step (batch") {
			t.Errorf("%s off nominal: Run error %v, want one naming the step shape", tt.name, err)
		}
		brownout.Simulate = cfg.Replica.Simulate
		src, err = serve.NewStream(crowd)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serve.RunStream(brownout, src); err == nil || !strings.Contains(err.Error(), "step (batch") {
			t.Errorf("%s off nominal: brownout serve.RunStream error %v, want one naming the step shape", tt.name, err)
		}
	}
}

// slowestPolicy holds one replica at the ladder's slowest point.
type slowestPolicy struct{}

func (slowestPolicy) Name() string { return "slowest" }
func (slowestPolicy) Decide(o Observation) Decision {
	return Decision{Replicas: 1, Point: o.Ladder[len(o.Ladder)-1]}
}
