package sim

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
)

// pinnedSimulateSum is the sha256 of every Result of pinnedParams,
// each over every workload of pinnedWorkloads, in Go syntax.
const pinnedSimulateSum = "a9af0f0ca3fea6b4425b4ac0a55affb5b8b71f37c7c890b70ff09f7ff2edeb44"

// pinnedWorkloads covers decode and prefill of a gated multi-head
// model, a gated GQA model and an ungated one, plus an MoE step whose
// weight traffic is WeightStreamBytes.
func pinnedWorkloads() []model.Workload {
	moe := model.MoEConfig{Base: model.Llama2_7B, Experts: 8, TopK: 2, ExpertFFN: 5504}
	return []model.Workload{
		model.Llama2_7B.DecodeOps(4, 1024),
		model.Llama2_7B.PrefillOps(2, 512),
		model.Llama2_70B_GQA.DecodeOps(8, 4096),
		model.Llama2_70B_GQA.PrefillOps(1, 256),
		model.WhisperTiny.DecodeOps(3, 448),
		model.WhisperTiny.PrefillOps(2, 1500),
		moe.DecodeOps(6, 2048),
	}
}

// pinnedParams covers every design kind and one PWL nonlinear unit, on
// one node and two meshes, at every step of the DVFS ladder, with the
// default (zero) off-chip and NoC bandwidths; then an explicit off-chip
// bandwidth, NoCs starved into the fail-safe, and a Params that names
// only its design.
func pinnedParams() []Params {
	designs := []arch.Design{
		arch.Mugi(256), arch.MugiL(64), arch.Carat(128),
		arch.SystolicArray(16, false), arch.SystolicArray(32, true),
		arch.SIMDArray(16, false), arch.TensorCore(),
		arch.SystolicArray(16, false).WithNLScheme(arch.NLPWL, 16),
	}
	meshes := []noc.Mesh{noc.Single, noc.NewMesh(2, 2), noc.NewMesh(8, 8)}
	var ps []Params
	for _, d := range designs {
		for _, mesh := range meshes {
			for _, dvfs := range arch.DVFSLadder() {
				ps = append(ps, Params{Design: d, Mesh: mesh, DVFS: dvfs})
			}
		}
	}
	return append(ps,
		Params{Design: arch.Mugi(128), Bandwidth: 64e9},
		Params{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), NoCBandwidth: 1e9},
		Params{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2), NoCBandwidth: 1e9, DVFS: arch.DVFSStep("p50", 0.5)},
		Params{Design: arch.Mugi(64)},
	)
}

// TestSimulatePinned pins the simulator's output, byte for byte, over
// every design kind, mesh, DVFS step and workload shape above. The
// digest covers each Result in Go syntax (%#v), so every float is held
// exactly: a change that regroups one floating-point sum or product in
// the pass moves it. A mismatch prints the new digest; update it only
// for a change that is meant to move the simulator's numbers.
func TestSimulatePinned(t *testing.T) {
	h := sha256.New()
	var passes, limited int
	for _, p := range pinnedParams() {
		for _, w := range pinnedWorkloads() {
			r := Simulate(p, w)
			fmt.Fprintf(h, "%#v\n", r)
			passes++
			if r.NoCLimited {
				limited++
			}
		}
	}
	if limited == 0 {
		t.Error("no pass took the NoC fail-safe")
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != pinnedSimulateSum {
		t.Errorf("Simulate digest over %d passes %s, pinned %s", passes, got, pinnedSimulateSum)
	}
}
