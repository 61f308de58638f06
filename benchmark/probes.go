package main

import (
	"math/rand"
	"time"

	"mugi"
	"mugi/internal/runner"
	"mugi/internal/sim"
)

const (
	// probePoints is how many fresh design-space points the simulator and
	// cache probes run over.
	probePoints = 1024
	// probeReps is how many times each probe repeats; it reports the median.
	probeReps = 5
	// probeWindow is how long one repetition of a kernel probe runs.
	probeWindow = 5 * time.Millisecond
)

// probeSink keeps probed results live so the compiler cannot drop a call.
var probeSink float64

// runProbes times single public calls on inputs that do not depend on the
// workload, so every traced run reports them: the simulator and the
// runner's cache over fresh design-space points drawn from the seed, and
// the VLP kernels at vlp_decode's shapes, each scaled by its calls per
// decoded token.
func runProbes(seed int64) map[string]float64 {
	space := theDesignSpace()
	rng := rand.New(rand.NewSource(unitSeed(seed, 0)))
	pts := make([]runner.Point, probePoints)
	for i := range pts {
		pts[i] = space.point(space.draw(rng))
	}
	perPass := func(f func(p runner.Point)) float64 {
		start := time.Now()
		for _, p := range pts {
			f(p)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(len(pts))
	}
	var direct, miss, hit []float64
	for r := 0; r < probeReps; r++ {
		direct = append(direct, perPass(func(p runner.Point) { probeSink += sim.Simulate(p.Params, p.Workload).Seconds }))
		mugi.ResetSimCache()
		miss = append(miss, perPass(func(p runner.Point) { probeSink += runner.Simulate(p.Params, p.Workload).Seconds }))
		hit = append(hit, perPass(func(p runner.Point) { probeSink += runner.Simulate(p.Params, p.Workload).Seconds }))
	}
	m := map[string]float64{
		"sim.ns_per_pass": median(direct),
		"runner.miss_ns":  median(miss),
		"runner.hit_ns":   median(hit),
	}
	m["core.gemm_us"], m["core.softmax_us"], m["nonlinear.act_us"] = kernelProbes()
	return m
}

// kernelProbes times the decoder's kernels through their public entry
// points at decoderConfig's shapes, at the mean context of a full
// sequence, and returns the microseconds each costs per decoded token.
func kernelProbes() (gemmUS, softmaxUS, actUS float64) {
	cfg := decoderConfig
	hd := cfg.Dim / cfg.Heads
	ctx := cfg.MaxSeq / 2
	shapes := []struct{ k, n, perToken int }{
		{cfg.Dim, cfg.Dim, 2 * cfg.Layers},          // q and o projections
		{cfg.Dim, cfg.KVHeads * hd, 2 * cfg.Layers}, // k and v projections
		{cfg.Dim, cfg.FFN, cfg.Layers},              // FFN up
		{cfg.FFN, cfg.Dim, cfg.Layers},              // FFN down
		{hd, ctx, cfg.Heads * cfg.Layers},           // scores against the key cache
		{ctx, hd, cfg.Heads * cfg.Layers},           // context against the value cache
		{cfg.Dim, cfg.Vocab, 1},                     // logits
	}
	array := mugi.GEMMConfig{Rows: 128, Cols: 8, Mapping: mugi.MappingMugi}
	for _, s := range shapes {
		a := mugi.NewMatrix(1, s.k)
		fill(a.Data)
		w := mugi.NewMatrix(s.k, s.n)
		fill(w.Data)
		wq := mugi.QuantizeWeights(w, 4, min(s.k, 64))
		out := mugi.NewMatrix(1, s.n)
		var scratch mugi.GEMMScratch
		gemmUS += perCallUS(func() { mugi.MultiplyInto(array, a, wq, out, &scratch) }) * float64(s.perToken)
	}
	ops := mugi.VLPDecoderOps(cfg.Activation)
	scores := make([]float64, ctx)
	probs := make([]float64, ctx)
	hidden := make([]float64, cfg.FFN)
	fill(scores)
	fill(hidden)
	softmaxUS = perCallUS(func() { ops.Softmax(probs, scores) }) * float64(cfg.Heads*cfg.Layers)
	actUS = perCallUS(func() {
		for _, x := range hidden {
			probeSink += ops.Act(x)
		}
	}) * float64(cfg.Layers)
	return gemmUS, softmaxUS, actUS
}

// perCallUS returns the median over probeReps windows of f's time per
// call, in microseconds.
func perCallUS(f func()) float64 {
	f()
	reps := 1
	for start := time.Now(); time.Since(start) < probeWindow/4; reps *= 2 {
		for i := 0; i < reps; i++ {
			f()
		}
	}
	times := make([]float64, probeReps)
	for r := range times {
		start := time.Now()
		for i := 0; i < reps; i++ {
			f()
		}
		times[r] = float64(time.Since(start).Nanoseconds()) / float64(reps) / 1e3
	}
	return median(times)
}

// fill writes a deterministic spread of values in [-1, 1).
func fill[T float32 | float64](xs []T) {
	s := uint64(0x9E3779B97F4A7C15)
	for i := range xs {
		s = s*6364136223846793005 + 1442695040888963407
		xs[i] = T(float64(int64(s>>11))/float64(1<<52) - 1)
	}
}
