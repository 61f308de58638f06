package fleet

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/overload"
	"mugi/internal/serve"
)

// pinnedPlan is one fleet plan whose complete result is pinned.
type pinnedPlan struct {
	name string
	spec PlanSpec
	sum  string // sha256 of fmt.Sprintf("%#v", Plan(spec))
}

// pinnedPlans covers the ways a capacity search's probes can differ
// from each other: cells with and without capacity under JSQ routing,
// replicas that never receive a request, a brownout ladder that reaches
// its DVFS rung, and context buckets that do not divide the model's
// context window.
func pinnedPlans() []pinnedPlan {
	slo := SLO{TTFTP99: 60, LatencyP99: 300}
	llama := serve.Config{Model: model.Llama2_7B}
	return []pinnedPlan{
		{"jsq grid", PlanSpec{
			Base: llama,
			Cells: Grid(
				[]arch.Design{arch.Mugi(256), arch.SystolicArray(16, true)},
				[]noc.Mesh{noc.Single, noc.NewMesh(2, 2)},
				[]int{1, 2, 4},
			),
			Policy: JSQ,
			Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: 3},
			SLO:    slo,
			Iters:  3,
		}, "eddd1cb379361c6c7c19d9435d281dcdd10958796317a3519aa70f8a696a1ae6"},
		{"idle replicas", idleReplicasSpec(), "07b5d53524be62aadf4504827c3170fb42f4bd7a9249bca104d2d318585d67b8"},
		{"brownout", brownoutPlanSpec(), "b546732016ffdb8e4ff77219f15f97191777ad16b8acd41d8a418774adcf15d1"},
		{"unaligned contexts", PlanSpec{
			Base:  serve.Config{Model: model.Llama2_7B, CtxBucket: 7},
			Cells: []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), Replicas: 2}},
			Trace: serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: 3, Lengths: serve.RAGLengths()},
			SLO:   slo,
			Iters: 3,
		}, "68d95f791c3735c82dcc394ec1cb9d8ce85e14be6263d0afb0ddc40ea5b5cb36"},
	}
}

// idleReplicasSpec routes two affinity sessions onto four replicas, so
// two replicas receive no request on any probe.
func idleReplicasSpec() PlanSpec {
	return PlanSpec{
		Base:             serve.Config{Model: model.Llama2_7B},
		Cells:            []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 4}},
		Policy:           Affinity,
		AffinitySessions: 2,
		Trace:            serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: 3},
		SLO:              SLO{TTFTP99: 60, LatencyP99: 300},
		Iters:            3,
	}
}

// brownoutPlanSpec arms a brownout ladder that climbs to its DVFS rung
// on the probes near capacity.
func brownoutPlanSpec() PlanSpec {
	return PlanSpec{
		Base: serve.Config{
			Model:    model.Llama2_7B,
			MaxBatch: 4,
			Brownout: &overload.BrownoutSpec{HighWater: 4, Dwell: 2},
		},
		Cells: []Cell{{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), Replicas: 2}},
		Trace: serve.TraceConfig{Kind: serve.Bursty, Requests: 48, Seed: 5},
		Iters: 4,
	}
}

// TestPlanPinned pins the planner's complete output, byte for byte: the
// %#v rendering of every CellResult, including every float of every
// merged and per-replica report and every TCO figure. A mismatch prints
// the new digest; update it only for a change that is meant to move the
// planner's numbers.
func TestPlanPinned(t *testing.T) {
	for _, row := range pinnedPlans() {
		t.Run(row.name, func(t *testing.T) {
			res := Plan(row.spec)
			if got := planDigest(res); got != row.sum {
				t.Errorf("plan digest %s, pinned %s", got, row.sum)
			}
		})
	}
}

// planDigest is the sha256 of a plan's results in Go syntax.
func planDigest(res []CellResult) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", res))))
}
