package experiments

import (
	"math"
	"math/rand"

	"mugi/internal/arch"
	"mugi/internal/core"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/nonlinear"
)

// MoE evaluates the mixture-of-experts extension the paper conjectures
// Mugi generalizes to (§7.2): a Mixtral-style top-2-of-8 configuration on
// the Llama-2 7B attention geometry, compared design by design against the
// dense equivalent.
func MoE() *Report {
	r := &Report{ID: "moe", Title: "MoE extension (top-2 of 8 experts, Llama-2 7B geometry)"}
	moe := model.MoEConfig{
		Base:      model.Llama2_7B,
		Experts:   8,
		TopK:      2,
		ExpertFFN: model.Llama2_7B.FFN / 4,
	}
	dense := moe.Base.DecodeOps(8, 4096)
	sparse := moe.DecodeOps(8, 4096)
	r.Printf("params: dense %d, MoE %d (8 experts)", moe.Base.Params(), moe.Params())
	r.Printf("DRAM/pass: dense %.2f GB, MoE %.2f GB (active experts only)",
		float64(dense.DRAMBytesPerPass())/1e9, float64(sparse.DRAMBytesPerPass())/1e9)
	r.Printf("%-14s %14s %14s %10s", "design", "dense tok/s", "MoE tok/s", "speedup")
	for _, d := range []arch.Design{arch.Mugi(256), arch.SystolicArray(16, false)} {
		rd := simulate(d, noc.Single, dense)
		rm := simulate(d, noc.Single, sparse)
		r.Printf("%-14s %14.3f %14.3f %9.2fx",
			d.Name, rd.TokensPerSecond, rm.TokensPerSecond,
			rm.TokensPerSecond/rd.TokensPerSecond)
	}
	return r
}

// Online evaluates the online window-adaptation mechanism (paper §7.1
// future work): a softmax input distribution that drifts at runtime, with
// the weighted error of a statically tuned window, the per-mapping
// hardware policy, and the decayed-histogram online window.
func Online() *Report {
	r := &Report{ID: "online", Title: "Online window adaptation under distribution drift"}
	rng := rand.New(rand.NewSource(77))
	batches := 50
	mk := func(center float64) []float64 {
		xs := make([]float64, 512)
		for i := range xs {
			xs[i] = -math.Exp2(center + rng.NormFloat64()*0.6)
		}
		return xs
	}
	cfg := core.Config{Op: nonlinear.Exp, LUTEMin: -14, LUTEMax: 6}
	static := core.New(cfg)
	static.SetWindow(-3)
	perMap := core.New(cfg)
	online := core.NewOnlineWindow(core.New(cfg), 0.7)

	var errStatic, errPerMap, errOnline float64
	dst := make([]float64, 512)
	for b := 0; b < batches; b++ {
		center := -8.0 * float64(b) / float64(batches-1) // drift 0 -> -8
		xs := mk(center)
		for _, x := range xs {
			errStatic += math.Abs(static.Approx(x) - math.Exp(x))
		}
		perMap.SelectWindowMass(xs)
		for _, x := range xs {
			errPerMap += math.Abs(perMap.Approx(x) - math.Exp(x))
		}
		online.Eval(dst, xs)
		for i, x := range xs {
			errOnline += math.Abs(dst[i] - math.Exp(x))
		}
	}
	n := float64(batches * 512)
	r.Printf("drifting softmax inputs (exponent center 0 -> -8 over %d batches):", batches)
	r.Printf("  static tuned window   mean |err| %.3g", errStatic/n)
	r.Printf("  per-mapping selection mean |err| %.3g", errPerMap/n)
	r.Printf("  online decayed window mean |err| %.3g", errOnline/n)
	r.Printf("online/static improvement: %.1fx", errStatic/errOnline)
	return r
}
