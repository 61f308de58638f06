package experiments

import (
	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/sim"
)

// Fig11 regenerates the iso-area nonlinear comparison: normalized
// throughput, energy efficiency, and power efficiency of each nonlinear
// engine against the precise 16-lane vector array (VA-FP 16), for softmax
// and SiLU (the paper geomeans over Llama-2 models; the unit-level ratios
// are sequence-length independent as the paper notes).
func Fig11() *Report {
	r := &Report{ID: "fig11", Title: "Iso-area nonlinear comparison (norm. to VA-FP 16)"}
	c := arch.Cost45nm
	base := arch.VectorNLUnit(arch.NLPrecise, 16)
	units := []arch.NLUnit{
		arch.MugiNLUnit(128),
		arch.MugiNLUnit(256),
		arch.CaratNLUnit(128),
		arch.CaratNLUnit(256),
		base,
		arch.VectorNLUnit(arch.NLTaylor, 16),
		arch.VectorNLUnit(arch.NLPWL, 16),
	}
	r.Printf("%-22s %14s %14s %14s %10s", "unit", "norm thr", "norm energy-eff", "norm power-eff", "area mm2")
	for _, u := range units {
		r.Printf("%-22s %14s %14s %14s %10.3f",
			u.Name,
			fmtRatio(u.ThroughputPerSecond(c)/base.ThroughputPerSecond(c)),
			fmtRatio(u.EnergyEfficiency(c)/base.EnergyEfficiency(c)),
			fmtRatio(u.PowerEfficiency(c)/base.PowerEfficiency(c)),
			u.AreaMM2(c))
	}
	return r
}

// gemmOnlyWorkload strips a workload to one op class, the per-class GEMM
// study of Fig. 12.
func gemmOnlyWorkload(w model.Workload, class model.OpClass) model.Workload {
	var ops []model.Op
	for _, op := range w.Ops {
		if op.Class == class {
			ops = append(ops, op)
		}
	}
	w.Ops = ops
	return w
}

// fig12Designs is the design set of Fig. 12.
func fig12Designs() []arch.Design {
	return []arch.Design{
		arch.Mugi(128), arch.Mugi(256),
		arch.Carat(128), arch.Carat(256),
		arch.SystolicArray(16, false), arch.SystolicArray(16, true),
		arch.SIMDArray(16, false), arch.SIMDArray(16, true),
	}
}

// Fig12 regenerates the iso-area GEMM comparison: per-class throughput
// normalized to SA(16), for Llama-2 7B/13B/70B/70B-GQA at batch 8, seq
// 4096.
func Fig12() *Report {
	r := &Report{ID: "fig12", Title: "Iso-area GEMM comparison (norm. to SA 16)"}
	models := []model.Config{model.Llama2_7B, model.Llama2_13B, model.Llama2_70B, model.Llama2_70B_GQA}
	classes := []model.OpClass{model.Projection, model.Attention, model.FFN}
	saRef := arch.SystolicArray(16, false)
	for _, class := range classes {
		r.Printf("-- %v --", class)
		r.Printf("%-12s %12s %12s %12s %12s", "design", "7B", "13B", "70B", "70B GQA")
		ref := map[string]float64{}
		for _, m := range models {
			w := gemmOnlyWorkload(m.DecodeOps(8, 4096), class)
			res := simulate(saRef, noc.Single, w)
			ref[m.Name] = res.TotalCycles
		}
		for _, d := range fig12Designs() {
			row := []any{d.Name}
			for _, m := range models {
				w := gemmOnlyWorkload(m.DecodeOps(8, 4096), class)
				res := simulate(d, noc.Single, w)
				row = append(row, fmtRatio(ref[m.Name]/res.TotalCycles))
			}
			r.Printf("%-12s %12s %12s %12s %12s", row...)
		}
	}
	return r
}

// table3Rows is the design matrix of Table 3.
func table3Rows() []struct {
	group string
	d     arch.Design
	mesh  noc.Mesh
} {
	return []struct {
		group string
		d     arch.Design
		mesh  noc.Mesh
	}{
		{"SN", arch.Mugi(128), noc.Single},
		{"SN", arch.Mugi(256), noc.Single},
		{"SN", arch.Carat(128), noc.Single},
		{"SN", arch.Carat(256), noc.Single},
		{"SN", arch.SystolicArray(16, false), noc.Single},
		{"SN", arch.SystolicArray(16, true), noc.Single},
		{"SN", arch.SIMDArray(16, false), noc.Single},
		{"SN", arch.SIMDArray(16, true), noc.Single},
		{"SN-S", arch.SystolicArray(64, false), noc.Single},
		{"SN-S", arch.SystolicArray(64, true), noc.Single},
		{"SN-S", arch.SIMDArray(64, false), noc.Single},
		{"SN-S", arch.SIMDArray(64, true), noc.Single},
		{"SN-S", arch.TensorCore(), noc.Single},
		{"NoC", arch.Mugi(256), noc.NewMesh(4, 4)},
		{"NoC", arch.Carat(256), noc.NewMesh(4, 4)},
		{"NoC", arch.SystolicArray(16, false), noc.NewMesh(4, 4)},
		{"NoC", arch.SystolicArray(16, true), noc.NewMesh(4, 4)},
		{"NoC", arch.SIMDArray(16, false), noc.NewMesh(4, 4)},
		{"NoC", arch.SIMDArray(16, true), noc.NewMesh(4, 4)},
		{"NoC", arch.TensorCore(), noc.NewMesh(2, 1)},
	}
}

// Table3 regenerates the end-to-end comparison on Llama-2 70B GQA (batch
// 8, seq 4096): throughput, on-chip area, energy efficiency, power
// efficiency per design and NoC configuration.
func Table3() *Report {
	r := &Report{ID: "tab3", Title: "End-to-end comparison, Llama-2 70B GQA, batch 8, seq 4096"}
	w := model.Llama2_70B_GQA.DecodeOps(8, 4096)
	rows := table3Rows()
	r.Printf("%-5s %-16s %6s %12s %10s %14s %14s",
		"group", "design", "mesh", "tokens/s", "area mm2", "tokens/J(dyn)", "tokens/s/W")
	for _, row := range rows {
		res := simulate(row.d, row.mesh, w)
		area := row.d.Area(&arch.Cost45nm).Total()*row.mesh.SpeedupFactor() + row.mesh.AreaMM2()
		r.Printf("%-5s %-16s %6s %12.3f %10.2f %14.2f %14.3f",
			row.group, row.d.Name, row.mesh, res.TokensPerSecond, area,
			res.TokensPerJoule(w.TokensPerPass()), res.TokensPerSecondPerWatt())
	}
	return r
}

// Fig13 regenerates the array-level and NoC-level area/power breakdown.
func Fig13() *Report {
	r := &Report{ID: "fig13", Title: "Area and power breakdown"}
	w := model.Llama2_70B_GQA.DecodeOps(8, 4096)
	designs := []arch.Design{
		arch.Mugi(128), arch.Mugi(256),
		arch.MugiL(128), arch.MugiL(256),
		arch.Carat(128), arch.Carat(256),
		arch.SystolicArray(8, true), arch.SystolicArray(16, true),
		arch.SIMDArray(8, true), arch.SIMDArray(16, true),
	}
	nocDesigns := []arch.Design{arch.Mugi(256), arch.Carat(256), arch.SystolicArray(16, true)}
	r.Printf("%-12s %8s %8s %8s %8s %8s %8s | %9s %9s %9s",
		"design", "PE", "Acc", "FIFO", "TC", "NL", "Vec", "array", "SRAM", "power W")
	for _, d := range designs {
		b := d.Area(&arch.Cost45nm)
		res := simulate(d, noc.Single, w)
		r.Printf("%-12s %8.3f %8.3f %8.3f %8.3f %8.3f %8.3f | %9.3f %9.3f %9.3f",
			d.Name, b.PE, b.Acc, b.FIFO, b.TC, b.Nonlinear, b.Vector,
			b.ArrayTotal(), b.SRAM, res.PowerWatts)
	}
	r.Printf("-- NoC level (4x4) --")
	for _, d := range nocDesigns {
		mesh := noc.NewMesh(4, 4)
		res := simulate(d, mesh, w)
		area := d.Area(&arch.Cost45nm).Total()*16 + mesh.AreaMM2()
		r.Printf("%-12s total %8.1f mm2  %8.2f W", d.Name, area, res.PowerWatts)
	}
	return r
}

// Fig14 regenerates the batch-size sweep: normalized throughput and
// energy/token across batch 1-32 and seq lengths, geomeaned over Llama-2
// models. Normalization is an 8x8 systolic array at batch 1.
func Fig14() *Report {
	r := &Report{ID: "fig14", Title: "Batch sweep (norm. to SA 8x8 @ batch 1)"}
	batches := []int{1, 2, 4, 8, 16, 32}
	seqs := []int{128, 1024, 4096}
	baseD := arch.SystolicArray(8, false)
	designs := []arch.Design{
		arch.Mugi(64), arch.Mugi(256),
		arch.Carat(64), arch.Carat(256),
		arch.SystolicArray(8, false), arch.SystolicArray(16, false),
		arch.SIMDArray(8, false), arch.SIMDArray(16, false),
	}
	for _, seq := range seqs {
		r.Printf("-- seq %d --", seq)
		baseThr := llamaGeomeanDecode(baseD, noc.Single, 1, seq,
			func(res sim.Result, w model.Workload) float64 { return res.TokensPerSecond })
		baseEPT := llamaGeomeanDecode(baseD, noc.Single, 1, seq,
			func(res sim.Result, w model.Workload) float64 { return res.EnergyPerToken(w.TokensPerPass()) })
		r.Printf("%-10s %8s %16s %16s", "design", "batch", "norm thr", "norm energy/tok")
		for _, d := range designs {
			for _, b := range batches {
				thr := llamaGeomeanDecode(d, noc.Single, b, seq,
					func(res sim.Result, w model.Workload) float64 { return res.TokensPerSecond })
				ept := llamaGeomeanDecode(d, noc.Single, b, seq,
					func(res sim.Result, w model.Workload) float64 { return res.EnergyPerToken(w.TokensPerPass()) })
				r.Printf("%-10s %8d %16s %16s", d.Name, b, fmtRatio(thr/baseThr), fmtRatio(baseEPT/ept))
			}
		}
	}
	return r
}
