package mugi

// The benchmark harness: one benchmark per table and figure of the paper's
// evaluation section (`mugibench -list` prints the experiment index), plus
// the design-choice ablations and kernel-level micro-benchmarks. Run with
//
//	go test -bench=. -benchmem
//
// Each BenchmarkFigXX/BenchmarkTable3 target regenerates the corresponding
// artifact through internal/experiments, and the wall time measures the
// full regeneration cost (the paper's artifact takes 0.5-1 h; this is
// seconds). These benchmarks are for local profiling; performance claims
// are measured with `bash benchmark/run.sh`, and the allocation budgets
// of the serving kernels below are gated by TestAllocBudgets.

import (
	"fmt"
	"math/rand"
	"testing"

	"mugi/internal/accuracy"
	"mugi/internal/core"
	"mugi/internal/dist"
	"mugi/internal/experiments"
	"mugi/internal/runner"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	// Pin the pool to one worker so ms/artifact stays a serial-regeneration
	// cost, comparable across machines and -bench filters (the registry
	// benchmarks below measure the parallel effect explicitly).
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)
	var out string
	for i := 0; i < b.N; i++ {
		out = e.Run().String()
	}
	// Per-artifact wall time in milliseconds.
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/artifact")
	if len(out) < 100 {
		b.Fatalf("%s produced no output", id)
	}
}

// benchRegistry regenerates the complete registry per iteration at the
// given parallelism — the serial/parallel pair below is the wall-clock
// speedup evidence for the concurrent runner.
func benchRegistry(b *testing.B, parallelism int) {
	b.Helper()
	SetParallelism(parallelism)
	defer SetParallelism(0)
	for i := 0; i < b.N; i++ {
		results := RunAll()
		if len(results) != len(Experiments()) {
			b.Fatalf("got %d artifacts", len(results))
		}
	}
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/registry")
}

// BenchmarkRunRegistrySerial regenerates every artifact on one worker.
func BenchmarkRunRegistrySerial(b *testing.B) { benchRegistry(b, 1) }

// BenchmarkRunRegistryParallel4 regenerates every artifact on four
// workers; on a 4-core machine this runs ≥ 2x faster than the serial
// benchmark (experiments fan out across the pool and sweep points fan out
// within each experiment).
func BenchmarkRunRegistryParallel4(b *testing.B) { benchRegistry(b, 4) }

// BenchmarkFig04Distributions regenerates the input value/exponent
// distribution profiles (paper Fig. 4).
func BenchmarkFig04Distributions(b *testing.B) { benchExperiment(b, "fig4") }

// BenchmarkFig06AccuracyHeatmaps regenerates the perplexity/loss heatmaps
// across approximation configurations (paper Fig. 6).
func BenchmarkFig06AccuracyHeatmaps(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig07PerLayerTuning regenerates the Llama-2 per-layer window
// tuning curves (paper Fig. 7).
func BenchmarkFig07PerLayerTuning(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkFig08RelativeError regenerates the relative-error curves of the
// best configurations (paper Fig. 8).
func BenchmarkFig08RelativeError(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkFig11NonlinearIsoArea regenerates the iso-area nonlinear
// throughput/energy/power comparison (paper Fig. 11).
func BenchmarkFig11NonlinearIsoArea(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12GEMMIsoArea regenerates the per-class GEMM comparison
// (paper Fig. 12).
func BenchmarkFig12GEMMIsoArea(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkTable3EndToEnd regenerates the end-to-end single-node/scaled/NoC
// comparison on Llama-2 70B GQA (paper Table 3).
func BenchmarkTable3EndToEnd(b *testing.B) { benchExperiment(b, "tab3") }

// BenchmarkFig13Breakdown regenerates the array and NoC area/power
// breakdown (paper Fig. 13).
func BenchmarkFig13Breakdown(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14BatchSweep regenerates the batch-size sweep (paper Fig. 14).
func BenchmarkFig14BatchSweep(b *testing.B) { benchExperiment(b, "fig14") }

// BenchmarkFig15Carbon regenerates the operational/embodied carbon
// comparison (paper Fig. 15).
func BenchmarkFig15Carbon(b *testing.B) { benchExperiment(b, "fig15") }

// BenchmarkFig16LatencyBreakdown regenerates the end-to-end latency
// breakdown (paper Fig. 16).
func BenchmarkFig16LatencyBreakdown(b *testing.B) { benchExperiment(b, "fig16") }

// BenchmarkFig17NoC regenerates the NoC-level comparison (paper Fig. 17).
func BenchmarkFig17NoC(b *testing.B) { benchExperiment(b, "fig17") }

// BenchmarkAblations runs the design-choice ablation suite (mapping,
// buffers, sliding window, shared array): the `ablations` experiment.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "ablations") }

// ---- Ablation micro-benchmarks ----

// BenchmarkAblationMapping compares the cycle model of the Mugi transposed
// mapping against the Carat BF16 row mapping on a decode-shaped GEMM.
func BenchmarkAblationMapping(b *testing.B) {
	for _, m := range []struct {
		name    string
		mapping core.Mapping
	}{{"mugi", MappingMugi}, {"carat-bf16", MappingCaratBF16}} {
		b.Run(m.name, func(b *testing.B) {
			cfg := GEMMConfig{Rows: 128, Cols: 8, Mapping: m.mapping}
			rng := rand.New(rand.NewSource(1))
			a := NewMatrix(8, 256)
			w := NewMatrix(256, 512)
			for i := range a.Data {
				a.Data[i] = float32(rng.NormFloat64())
			}
			for i := range w.Data {
				w.Data[i] = float32(rng.NormFloat64() * 0.3)
			}
			q := QuantizeWeights(w, 4, 128)
			b.ResetTimer()
			var cycles int
			for i := 0; i < b.N; i++ {
				_, st := Multiply(cfg, a, q)
				cycles = st.Cycles
			}
			b.ReportMetric(float64(cycles), "array-cycles")
		})
	}
}

// BenchmarkAblationBuffers reports the Mugi vs Carat buffer area.
func BenchmarkAblationBuffers(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		m := NewMugi(256).Area(&Cost45nm)
		c := NewCarat(256).Area(&Cost45nm)
		ratio = c.FIFO / m.FIFO
	}
	b.ReportMetric(ratio, "carat/mugi-buffer-area")
}

// BenchmarkAblationSlidingWindow measures the VLP approximation with and
// without sliding-window selection on concentrated inputs.
func BenchmarkAblationSlidingWindow(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	xs := make([]float64, 4096)
	for i := range xs {
		xs[i] = -float64(rng.ExpFloat64()*2) - 0.1
	}
	dst := make([]float64, len(xs))
	for _, mode := range []string{"sliding", "fixed"} {
		b.Run(mode, func(b *testing.B) {
			a := NewApprox(ApproxConfig{Op: Exp, LUTEMin: -12, LUTEMax: 6})
			if mode == "sliding" {
				a.SelectWindowMass(xs)
			} else {
				a.SetWindow(-12)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					dst[j] = a.Approx(x)
				}
			}
		})
	}
}

// ---- Kernel micro-benchmarks ----

// BenchmarkVLPApproxElement measures the per-element cost of the
// functional VLP approximation path.
func BenchmarkVLPApproxElement(b *testing.B) {
	a := NewApprox(ApproxConfig{Op: Exp, LUTEMin: -8, LUTEMax: 4})
	x := -1.37
	var v float64
	for i := 0; i < b.N; i++ {
		v = a.Approx(x)
	}
	_ = v
}

// BenchmarkVLPSoftmaxRow measures a full VLP softmax over one attention
// score row: a 4,096-wide row, and a 256-wide one, the mean context of a
// 512-token decode.
func BenchmarkVLPSoftmaxRow(b *testing.B) {
	for _, n := range []int{4096, 256} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			a := NewApprox(ApproxConfig{Op: Exp, LUTEMin: -8, LUTEMax: 4})
			rng := rand.New(rand.NewSource(3))
			xs := make([]float64, n)
			for i := range xs {
				xs[i] = rng.NormFloat64() * 2
			}
			dst := make([]float64, len(xs))
			b.SetBytes(int64(len(xs) * 8))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Softmax(dst, xs)
			}
		})
	}
}

// BenchmarkVLPGEMM measures the functional VLP GEMM engine on its hot
// path: the blocked MultiplyInto kernel with a warmed scratch, zero
// steady-state allocations (asserted by TestMultiplyIntoZeroAlloc). It
// runs an 8×512 by 512×512 GEMM with 128-row groups, and the decoder's
// shapes at a context of 256: a 1×128 by 128×128 weight GEMV (64-row
// groups), the 1×16 score GEMM against a strided key-cache view (one
// 16-row group, a scale per token) and the context GEMM against a
// value-cache view (one-row groups sharing one scale per token). The
// gqa- cases are the same two attention GEMMs for a GQA group of four
// query heads sharing one KV head, the shape the decoder runs them in.
func BenchmarkVLPGEMM(b *testing.B) {
	const ctx, hd, maxSeq = 256, 16, 512
	rng := rand.New(rand.NewSource(4))
	randMatrix := func(rows, cols int, std float64) *Matrix {
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = float32(rng.NormFloat64() * std)
		}
		return m
	}
	randCodes := func(n int) []int8 {
		c := make([]int8, n)
		for i := range c {
			c[i] = int8(rng.Intn(15) - 7)
		}
		return c
	}
	randScales := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			s[i] = float32(rng.Float64()*0.1 + 0.01)
		}
		return s
	}
	for _, tc := range []struct {
		name string
		a    *Matrix
		q    QuantMatrix
	}{
		{"8x512x512", randMatrix(8, 512, 1), QuantizeWeights(randMatrix(512, 512, 0.3), 4, 128)},
		{"gemv-1x128x128", randMatrix(1, 128, 1), QuantizeWeights(randMatrix(128, 128, 0.1), 4, 64)},
		{"scores-key-view", randMatrix(1, hd, 1), QuantMatrix{
			Rows: hd, Cols: ctx, Bits: 4, GroupSize: hd, Stride: maxSeq,
			Codes: randCodes(hd * maxSeq), Scales: randScales(ctx),
		}},
		{"context-value-view", randMatrix(1, ctx, 0.1), QuantMatrix{
			Rows: ctx, Cols: hd, Bits: 4, GroupSize: 1, SharedScales: true,
			Codes: randCodes(ctx * hd), Scales: randScales(ctx),
		}},
		{"gqa-scores", randMatrix(4, hd, 1), QuantMatrix{
			Rows: hd, Cols: ctx, Bits: 4, GroupSize: hd, Stride: maxSeq,
			Codes: randCodes(hd * maxSeq), Scales: randScales(ctx),
		}},
		{"gqa-context", randMatrix(4, ctx, 0.1), QuantMatrix{
			Rows: ctx, Cols: hd, Bits: 4, GroupSize: 1, SharedScales: true,
			Codes: randCodes(ctx * hd), Scales: randScales(ctx),
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			cfg := GEMMConfig{Rows: 128, Cols: 8, Mapping: MappingMugi}
			out := NewMatrix(tc.a.Rows, tc.q.Cols)
			var scratch GEMMScratch
			b.SetBytes(int64(tc.a.Rows * tc.q.Rows * tc.q.Cols))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MultiplyInto(cfg, tc.a, tc.q, out, &scratch)
			}
		})
	}
}

// BenchmarkDecodeStep measures one token through the full functional
// stack — VLP weight GEMMs, KVQ cache append + attention, VLP softmax and
// activation, RoPE from the precomputed frequency table. A warmed step is
// allocation-free; the engine resets when the KV window fills.
func BenchmarkDecodeStep(b *testing.B) {
	cfg := DecoderConfig{
		Layers: 2, Heads: 4, KVHeads: 2, Dim: 32, FFN: 64,
		Vocab: 64, MaxSeq: 4096, RoPE: true,
		Activation: SiLU, Seed: 99,
	}
	dec, err := NewDecoder(cfg)
	if err != nil {
		b.Fatal(err)
	}
	ops := VLPDecoderOps(cfg.Activation)
	if _, err := dec.Step(1, ops); err != nil { // warm scratch + tables
		b.Fatal(err)
	}
	pos := 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pos >= cfg.MaxSeq {
			dec.Reset()
			pos = 0
		}
		if _, err := dec.Step(i%cfg.Vocab, ops); err != nil {
			b.Fatal(err)
		}
		pos++
	}
}

// BenchmarkProxyLoss measures one exact-stack proxy Loss evaluation, the
// unit of work of every Fig. 6/7 accuracy-sweep cell. A warmed Loss runs
// entirely out of the proxy's scratch pool.
func BenchmarkProxyLoss(b *testing.B) {
	p := accuracy.NewProxy(accuracy.DefaultProxy(dist.Llama2))
	impl := accuracy.Uniform(accuracy.ExactImpl(p.Config().Activation))
	p.Loss(impl) // warm the scratch pool
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Loss(impl)
	}
}

// BenchmarkSimulateDecode measures one full simulator pass (the unit of
// every Fig. 12-17 sweep).
func BenchmarkSimulateDecode(b *testing.B) {
	w := Llama2_70B_GQA.DecodeOps(8, 4096)
	d := NewMugi(256)
	for i := 0; i < b.N; i++ {
		Simulate(SimParams{Design: d}, w)
	}
}

// ---- Serving benchmarks ----

// poissonServe returns the serving scenario of the serving benchmarks
// and of TestAllocBudgets' serve rows: 48 Poisson chat requests (seed 1)
// at rate req/s on a Mugi(256) deployment over mesh.
func poissonServe(tb testing.TB, mesh Mesh, rate float64) (ServeConfig, RequestTrace) {
	tb.Helper()
	tr, err := NewTrace(TraceConfig{Kind: TracePoisson, Rate: rate, Requests: 48, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	return ServeConfig{Model: Llama2_7B, Design: NewMugi(256), Mesh: mesh}, tr
}

// benchServe runs one serving scenario per iteration and reports
// sustained requests/s and p99 request latency of the simulated
// deployment (simulated-time metrics, stable across machines) alongside
// the wall-clock ms/run.
func benchServe(b *testing.B, mesh Mesh, rate float64) {
	b.Helper()
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)
	cfg, tr := poissonServe(b, mesh, rate)
	var rep ServeReport
	for i := 0; i < b.N; i++ {
		var err error
		if rep, err = Serve(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rep.SustainedRate, "req/s")
	b.ReportMetric(rep.Latency.P99, "p99-s")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/run")
}

// BenchmarkServeSingleNode serves Poisson chat traffic on one Mugi(256)
// node just past its capacity.
func BenchmarkServeSingleNode(b *testing.B) { benchServe(b, SingleNode, 0.05) }

// BenchmarkServeMesh4x4 serves the 4x4 scale-out at a 10x higher arrival
// rate.
func BenchmarkServeMesh4x4(b *testing.B) { benchServe(b, NewMesh(4, 4), 0.5) }

// BenchmarkServePoissonWarm is the steady-state serving cost: the same
// scenario as BenchmarkServeSingleNode but with the pooled scheduler warm
// — the per-sweep-cell cost inside a rate x mesh x design or capacity
// sweep.
func BenchmarkServePoissonWarm(b *testing.B) {
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)
	cfg, tr := poissonServe(b, SingleNode, 0.05)
	if _, err := Serve(cfg, tr); err != nil { // warm the pools
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Serve(cfg, tr); err != nil {
			b.Fatal(err)
		}
	}
}

// millionRequests returns the sweep-scale scenario: a one-million-request
// Poisson trace (0.5 req/s, seed 1) on a Mugi(256) 4x4 mesh that keeps
// up with the offered rate.
func millionRequests() (ServeConfig, TraceConfig) {
	return ServeConfig{Model: Llama2_7B, Design: NewMugi(256), Mesh: NewMesh(4, 4)},
		TraceConfig{Kind: TracePoisson, Rate: 0.5, Requests: 1_000_000, Seed: 1}
}

// serveStream serves one lazily drawn trace and fails tb unless every
// request completes.
func serveStream(tb testing.TB, cfg ServeConfig, tc TraceConfig) ServeReport {
	src, err := NewTraceStream(tc)
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := ServeStream(cfg, src)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Completed != tc.Requests {
		tb.Fatalf("completed %d of %d requests", rep.Completed, tc.Requests)
	}
	return rep
}

// BenchmarkServeMillionRequests drives a one-million-request Poisson
// trace through the scheduler via the lazy stream: the trace is never
// materialized, latency percentiles aggregate into fixed-size histograms,
// and step shapes are quantized so the step-cost table stays bounded.
// Reported metrics are simulated sustained req/s and the wall-clock per
// full run.
func BenchmarkServeMillionRequests(b *testing.B) {
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)
	cfg, tc := millionRequests()
	var rep ServeReport
	for i := 0; i < b.N; i++ {
		rep = serveStream(b, cfg, tc)
	}
	b.ReportMetric(rep.SustainedRate, "req/s")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/run")
}

// BenchmarkCapacitySearch measures one full capacity search (bracketing +
// bisection) of a single-node cell, a one-replica PlanFleet cell: the
// unit of work of every capacity-sweep cell.
func BenchmarkCapacitySearch(b *testing.B) {
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)
	// Probe length matters: very short probes realize noisy offered rates
	// and pay a large drain-tail penalty, pushing the goodput ratio under
	// threshold even far below capacity. 48 requests keep the ratio
	// discriminative.
	spec := FleetPlanSpec{
		Base:  ServeConfig{Model: Llama2_7B},
		Cells: []FleetCell{{Design: NewMugi(256), Mesh: SingleNode, Replicas: 1}},
		Trace: TraceConfig{Kind: TracePoisson, Requests: 48, Seed: 1},
		Iters: 4,
	}
	var res FleetCellResult
	for i := 0; i < b.N; i++ {
		if res = PlanFleet(spec)[0]; res.Err != nil {
			b.Fatal(res.Err)
		}
	}
	b.ReportMetric(res.Capacity, "req/s-capacity")
	b.ReportMetric(float64(res.Probes), "probes")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/run")
}

// fleetPlanSpec returns the planner's unit of work: SLO-bound capacity
// search, TCO pricing, and both frontiers over a 2-design x 2-mesh x
// {1, 2}-replica grid under JSQ routing.
func fleetPlanSpec() FleetPlanSpec {
	return FleetPlanSpec{
		Base: ServeConfig{Model: Llama2_7B},
		Cells: FleetGrid(
			[]Design{NewMugi(256), NewSystolicArray(16, true)},
			[]Mesh{SingleNode, NewMesh(2, 2)},
			[]int{1, 2},
		),
		Policy: FleetJSQ,
		Trace:  TraceConfig{Kind: TracePoisson, Requests: 16, Seed: 1},
		SLO:    FleetSLO{TTFTP99: 60, LatencyP99: 300},
		Iters:  3,
	}
}

// planFleet runs one plan and returns its perf/$ frontier, failing tb on
// any cell error or an empty frontier (the planner silently degenerating
// to zero survivors).
func planFleet(tb testing.TB, spec FleetPlanSpec) []FleetCellResult {
	results := PlanFleet(spec)
	for _, r := range results {
		if r.Err != nil {
			tb.Fatal(r.Err)
		}
	}
	front := FleetFrontier(results, FrontierByDollar)
	if len(front) == 0 {
		tb.Fatal("empty perf/$ frontier")
	}
	return front
}

// BenchmarkFleetPlan measures one full fleet plan (fleetPlanSpec) and
// reports the frontier size.
func BenchmarkFleetPlan(b *testing.B) {
	runner.SetParallelism(1)
	defer runner.SetParallelism(0)
	spec := fleetPlanSpec()
	var front []FleetCellResult
	for i := 0; i < b.N; i++ {
		front = planFleet(b, spec)
	}
	b.ReportMetric(float64(len(front)), "frontier-cells")
	b.ReportMetric(b.Elapsed().Seconds()/float64(b.N)*1e3, "ms/plan")
}

// BenchmarkFleetExperiment regenerates the fleet-planner registry
// artifact (the "what fleet should I buy?" table + frontiers).
func BenchmarkFleetExperiment(b *testing.B) { benchExperiment(b, "fleet") }
