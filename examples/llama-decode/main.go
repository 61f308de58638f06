// llama-decode simulates one decoding step of Llama-2 70B (GQA) at batch 8
// and 4K context on Mugi and the paper's baselines, reproducing the
// Table-3 single-node comparison interactively.
package main

import (
	"fmt"

	"mugi"
)

func main() {
	workload := mugi.Llama2_70B_GQA.DecodeOps(8, 4096)
	fmt.Printf("workload: %s, batch 8, ctx 4096 (%d GEMM MACs/pass)\n\n",
		mugi.Llama2_70B_GQA.Name, workload.TotalMACs())

	designs := []mugi.Design{
		mugi.NewMugi(128),
		mugi.NewMugi(256),
		mugi.NewCarat(256),
		mugi.NewSystolicArray(16, false),
		mugi.NewSystolicArray(16, true),
		mugi.NewSIMDArray(16, false),
		mugi.NewTensorCore(),
	}
	fmt.Printf("%-16s %10s %10s %12s %12s %10s\n",
		"design", "tokens/s", "area mm2", "tokens/J", "tok/s/W", "util")
	for _, d := range designs {
		r := mugi.Simulate(mugi.SimParams{Design: d}, workload)
		area := d.Area(&mugi.Cost45nm).Total()
		fmt.Printf("%-16s %10.3f %10.2f %12.2f %12.3f %9.1f%%\n",
			d.Name, r.TokensPerSecond, area,
			r.TokensPerJoule(workload.TokensPerPass()),
			r.TokensPerSecondPerWatt(), r.Utilization*100)
	}

	// Scale Mugi out over a 4x4 mesh, the paper's NoC configuration.
	mesh := mugi.Simulate(mugi.SimParams{Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(4, 4)}, workload)
	fmt.Printf("\n4x4 NoC of Mugi(256): %.2f tokens/s (%.1fx single node)\n",
		mesh.TokensPerSecond,
		mesh.TokensPerSecond/mugi.Simulate(mugi.SimParams{Design: mugi.NewMugi(256)}, workload).TokensPerSecond)
}
