package experiments

import (
	"math/rand"

	"mugi/internal/arch"
	"mugi/internal/core"
	"mugi/internal/dist"
	"mugi/internal/nonlinear"
	"mugi/internal/runner"
	"mugi/internal/sim"
)

// Ablations quantifies the design choices DESIGN.md calls out:
//
//  1. the transposed BF16-INT4 mapping vs Carat's original row mapping
//     (temporal-signal length and utilization);
//  2. broadcast + output-buffer leaning vs Carat's pipelined FIFOs
//     (buffer area);
//  3. the sliding window vs a fixed window pinned to the LUT top
//     (value-weighted error on concentrated inputs);
//  4. the shared array vs a dedicated nonlinear unit (area of Mugi vs
//     Mugi-L).
func Ablations() *Report {
	r := &Report{ID: "ablations", Title: "Design-choice ablations"}

	// 1. Mapping ablation.
	mugiMap := core.PlanCycles(core.GEMMConfig{Rows: 128, Cols: 8, Mapping: core.MappingMugi},
		8, 4096, 4096, 4)
	caratMap := core.PlanCycles(core.GEMMConfig{Rows: 128, Cols: 8, Mapping: core.MappingCaratBF16},
		8, 4096, 4096, 4)
	r.Printf("mapping: mugi %d cycles (util %.2f) vs carat-bf16 %d cycles (util %.2f): %.1fx slowdown",
		mugiMap.Cycles, mugiMap.Utilization, caratMap.Cycles, caratMap.Utilization,
		float64(caratMap.Cycles)/float64(mugiMap.Cycles))

	// 2. Buffer ablation.
	m := arch.Mugi(256).Area(&arch.Cost45nm)
	c := arch.Carat(256).Area(&arch.Cost45nm)
	r.Printf("buffers: mugi %.3f mm2 vs carat %.3f mm2: %.2fx reduction (paper 4.5x)",
		m.FIFO, c.FIFO, c.FIFO/m.FIFO)

	// 3. Sliding window ablation on concentrated inputs.
	rng := rand.New(rand.NewSource(42))
	prof, err := dist.ProfileFor(dist.Whisper, nonlinear.Exp)
	if err != nil {
		panic(err)
	}
	var xs []float64
	for i := 0; i < 64; i++ {
		xs = append(xs, prof.SoftmaxInputs(rng, 0.8, 128)...)
	}
	sliding := core.New(core.Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 6})
	sliding.SelectWindowMass(xs)
	fixed := core.New(core.Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 6})
	fixed.SetWindow(-10)
	slErr := nonlinear.WeightedError(sliding, xs)
	fxErr := nonlinear.WeightedError(fixed, xs)
	r.Printf("window: sliding err %.3g vs fixed-low err %.3g: %.1fx better", slErr, fxErr, fxErr/slErr)

	// 4. Double-buffered SRAM provisioning: loads hidden behind compute
	// for every evaluated design at LLM reduction depths (§5.2.1).
	dbDesigns := []arch.Design{
		arch.Mugi(128), arch.Mugi(256), arch.Carat(256),
		arch.SystolicArray(16, false), arch.SystolicArray(64, false),
		arch.TensorCore(),
	}
	ks := []int{128, 4096, 28672}
	hidden := make([]bool, len(dbDesigns)*len(ks))
	runner.Map(len(hidden), func(i int) {
		hidden[i] = sim.LoadHidden(dbDesigns[i/len(ks)], ks[i%len(ks)])
	})
	allHidden := true
	for _, h := range hidden {
		if !h {
			allHidden = false
		}
	}
	r.Printf("double buffering: SRAM widths hide tile loads for all designs: %v", allHidden)

	// 5. Shared array vs dedicated nonlinear hardware.
	shared := arch.Mugi(256).Area(&arch.Cost45nm).Total()
	dedicated := arch.MugiL(256).Area(&arch.Cost45nm).Total()
	r.Printf("shared array: mugi %.2f mm2 vs mugi-L %.2f mm2: %.2f mm2 saved",
		shared, dedicated, dedicated-shared)
	return r
}
