package experiments

import (
	"mugi/internal/arch"
	"mugi/internal/carbon"
	"mugi/internal/model"
	"mugi/internal/noc"
)

// fig15Designs is the design set of Figs. 15/16: Mugi, Carat, Systolic,
// SIMD, plus the Taylor and PWL nonlinear-unit variants on the systolic
// base (the paper's T and P columns).
func fig15Designs() []arch.Design {
	sa := arch.SystolicArray(16, false)
	return []arch.Design{
		arch.Mugi(256),
		arch.Carat(256),
		sa,
		arch.SIMDArray(16, false),
		sa.WithNLScheme(arch.NLTaylor, 16),
		sa.WithNLScheme(arch.NLPWL, 16),
	}
}

// Fig15 regenerates the normalized operational + embodied carbon across
// Llama-2 model sizes at batch 8, seq 4096.
func Fig15() *Report {
	r := &Report{ID: "fig15", Title: "Normalized operational and embodied carbon per token"}
	models := []model.Config{model.Llama2_7B, model.Llama2_13B, model.Llama2_70B, model.Llama2_70B_GQA}
	for _, m := range models {
		w := m.DecodeOps(8, 4096)
		// Normalize to the systolic baseline's total.
		var base float64
		type row struct {
			name string
			f    carbon.Footprint
		}
		var rows []row
		for _, d := range fig15Designs() {
			res := simulate(d, noc.Single, w)
			total := res.DynamicEnergy + res.LeakageWatts*res.Seconds
			f := carbon.Assess(total, d.Area(&arch.Cost45nm).Total(), res.Seconds).PerToken(w.TokensPerPass())
			rows = append(rows, row{d.Name, f})
			if d.Kind == arch.KindSA && d.NL == arch.NLPrecise {
				base = f.Total()
			}
		}
		r.Printf("-- %s --", m.Name)
		r.Printf("%-22s %14s %14s %12s", "design", "operational", "embodied", "total(norm)")
		for _, rw := range rows {
			r.Printf("%-22s %14.4g %14.4g %12.3f",
				rw.name, rw.f.OperationalG, rw.f.EmbodiedG, rw.f.Total()/base)
		}
	}
	return r
}

// Fig16 regenerates the end-to-end latency breakdown per op class.
func Fig16() *Report {
	r := &Report{ID: "fig16", Title: "Normalized end-to-end latency breakdown"}
	models := []model.Config{model.Llama2_7B, model.Llama2_13B, model.Llama2_70B, model.Llama2_70B_GQA}
	for _, m := range models {
		w := m.DecodeOps(8, 4096)
		base := simulate(arch.SystolicArray(16, false), noc.Single, w).TotalCycles
		r.Printf("-- %s --", m.Name)
		r.Printf("%-22s %10s %10s %10s %10s %10s", "design", "Proj", "Attn", "FFN", "NL", "total")
		for _, d := range fig15Designs() {
			res := simulate(d, noc.Single, w)
			r.Printf("%-22s %10.3f %10.3f %10.3f %10.3f %10.3f",
				d.Name,
				res.CyclesByClass[model.Projection]/base,
				res.CyclesByClass[model.Attention]/base,
				res.CyclesByClass[model.FFN]/base,
				res.CyclesByClass[model.Nonlinear]/base,
				res.TotalCycles/base)
		}
	}
	return r
}

// Fig17 regenerates the NoC-level comparison: throughput, energy
// efficiency, power efficiency of 4x4 and 8x8 meshes (plus tensor-core
// 2x1/2x2), geomeaned over Llama-2 models and normalized to an 8x8
// systolic array on a 4x4 NoC.
func Fig17() *Report {
	r := &Report{ID: "fig17", Title: "NoC-level comparison (norm. to SA 8x8 on 4x4 NoC)"}
	type cfg struct {
		d    arch.Design
		mesh noc.Mesh
	}
	cfgs := []cfg{
		{arch.Mugi(64), noc.NewMesh(4, 4)},
		{arch.Mugi(128), noc.NewMesh(8, 8)},
		{arch.Carat(64), noc.NewMesh(4, 4)},
		{arch.Carat(128), noc.NewMesh(8, 8)},
		{arch.SystolicArray(8, false), noc.NewMesh(4, 4)},
		{arch.SystolicArray(16, false), noc.NewMesh(8, 8)},
		{arch.SIMDArray(8, false), noc.NewMesh(4, 4)},
		{arch.SIMDArray(16, false), noc.NewMesh(8, 8)},
		{arch.TensorCore(), noc.Single},
		{arch.TensorCore(), noc.NewMesh(2, 1)},
		{arch.TensorCore(), noc.NewMesh(2, 2)},
	}
	base := cfg{arch.SystolicArray(8, false), noc.NewMesh(4, 4)}
	metric := func(c cfg, f func(r2 simResult) float64) float64 {
		vals := make([]float64, 0, 3)
		for _, m := range model.LlamaModels() {
			w := m.DecodeOps(8, 4096)
			res := simulate(c.d, c.mesh, w)
			vals = append(vals, f(simResult{res.TokensPerSecond,
				res.TokensPerJoule(w.TokensPerPass()), res.TokensPerSecondPerWatt()}))
		}
		return geomean(vals)
	}
	baseThr := metric(base, func(r simResult) float64 { return r.thr })
	baseEE := metric(base, func(r simResult) float64 { return r.ee })
	basePE := metric(base, func(r simResult) float64 { return r.pe })
	r.Printf("%-18s %6s %12s %12s %12s", "design", "mesh", "norm thr", "norm EE", "norm PE")
	for _, c := range cfgs {
		r.Printf("%-18s %6s %12s %12s %12s", c.d.Name, c.mesh,
			fmtRatio(metric(c, func(r simResult) float64 { return r.thr })/baseThr),
			fmtRatio(metric(c, func(r simResult) float64 { return r.ee })/baseEE),
			fmtRatio(metric(c, func(r simResult) float64 { return r.pe })/basePE))
	}
	return r
}

type simResult struct{ thr, ee, pe float64 }
