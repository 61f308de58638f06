package sim

import (
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
)

// TestSimulateZeroAlloc: a pass allocates nothing, for every design kind,
// on one node and on a mesh, for decode and prefill, at the nominal and
// at an off-nominal DVFS point, through Simulate and through
// SimulateInto.
func TestSimulateZeroAlloc(t *testing.T) {
	designs := []arch.Design{
		arch.Mugi(256), arch.MugiL(256), arch.Carat(128),
		arch.SystolicArray(16, false), arch.SIMDArray(16, true), arch.TensorCore(),
	}
	workloads := []model.Workload{
		model.Llama2_7B.DecodeOps(8, 1024),
		model.Llama2_70B_GQA.PrefillOps(2, 512),
	}
	for _, d := range designs {
		for _, mesh := range []noc.Mesh{noc.Single, noc.NewMesh(4, 4)} {
			for _, dvfs := range []arch.DVFSPoint{{}, arch.DVFSStep("p50", 0.5)} {
				p := Params{Design: d, Mesh: mesh, DVFS: dvfs}
				for _, w := range workloads {
					if allocs := testing.AllocsPerRun(20, func() { Simulate(p, w) }); allocs != 0 {
						t.Errorf("%s on %s at %s, decode %v: %v allocs per pass, want 0",
							d.Name, mesh, dvfs, w.Decode, allocs)
					}
					var r Result
					if allocs := testing.AllocsPerRun(20, func() { SimulateInto(&p, &w, &r) }); allocs != 0 {
						t.Errorf("SimulateInto: %s on %s at %s, decode %v: %v allocs per pass, want 0",
							d.Name, mesh, dvfs, w.Decode, allocs)
					}
				}
			}
		}
	}
}
