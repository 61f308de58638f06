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

// oneReplicaPlans are one-cell, one-replica searches: 48-request probes
// of a zero-value trace template with 6 bisections, the MinuteServe tail
// bounds under JSQ, unquantized contexts, and a brownout ladder that
// reaches its DVFS rung on the probes near capacity.
func oneReplicaPlans() []pinnedPlan {
	mesh := noc.NewMesh(4, 4)
	llama := serve.Config{Model: model.Llama2_7B}
	ctx1 := llama
	ctx1.CtxBucket = 1
	tail := oneReplicaSpec(llama, mesh, serve.TraceConfig{Kind: serve.Poisson, Requests: 24, Seed: 3}, 6)
	tail.Policy = JSQ
	tail.SLO = SLO{TTFTP99: 10, LatencyP99: 120}
	brown := llama
	brown.MaxBatch = 4
	brown.Brownout = &overload.BrownoutSpec{HighWater: 4, Dwell: 2}
	return []pinnedPlan{
		{"default", oneReplicaSpec(llama, mesh, serve.TraceConfig{Requests: 48}, 6), "88cd4a25101bd8f0eaf960c55d36513cb2e9e41a3eec3d90cc5641a99100c575"},
		{"tail bounds", tail, "d8f7508ba9a832fbe0296acafc156a44688c86c34edeec3777ddb73c8a4bf7d1"},
		{"ctx bucket 1", oneReplicaSpec(ctx1, mesh, serve.TraceConfig{Kind: serve.Poisson, Requests: 16, Seed: 3}, 4), "748a4f281b70ef85ce849de4a2aa7bdb9b57a35fa45c39ea9163c94f7bab74d3"},
		{"brownout", oneReplicaSpec(brown, mesh, serve.TraceConfig{Kind: serve.Bursty, Requests: 48, Seed: 5}, 4), "6ae46f048770b884f196b5a0b71e8b9e96e8e35fcfb8a7a33e0631bea60ebe22"},
	}
}

// oneReplicaSpec plans one replica of Mugi(256) on mesh.
func oneReplicaSpec(base serve.Config, mesh noc.Mesh, tc serve.TraceConfig, iters int) PlanSpec {
	return PlanSpec{
		Base:  base,
		Cells: []Cell{{Design: arch.Mugi(256), Mesh: mesh, Replicas: 1}},
		Trace: tc,
		Iters: iters,
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
	checkPinned(t, pinnedPlans())
}

// TestOneReplicaPlanPinned pins the one-replica searches of
// oneReplicaPlans the same way. Their digests were taken while serve
// still had a single-replica search of its own, whose capacity, probe
// count and at-capacity report these plans matched.
func TestOneReplicaPlanPinned(t *testing.T) {
	checkPinned(t, oneReplicaPlans())
}

// checkPinned runs each row's plan as a subtest and compares its digest.
func checkPinned(t *testing.T, rows []pinnedPlan) {
	for _, row := range rows {
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
