// Command mugisim runs architecture simulations: a single (design, model,
// mesh) point with the Table-3 style metrics and latency breakdown, a
// request-level serving scenario with -serve, a capacity search with
// -capacity, a fleet plan (TCO + price-performance frontiers) with
// -fleet, a static-vs-online autoscaling comparison with -autoscale, a
// price-of-nines sweep (N+k spare capacity under fault injection) with
// -faults, a graceful-degradation demo (flash crowd vs tenanted
// admission control, priced by class) with -overload, or — with -all —
// the full experiment registry fanned across the concurrent sweep
// runner.
//
// Usage:
//
//	mugisim -design mugi -rows 256 -model "Llama 2 70B (GQA)" -batch 8 -seq 4096
//	mugisim -design sa -rows 16 -mesh 4x4 -model "Llama 2 7B"
//	mugisim -serve -mesh 4x4 -rate 0.5 -requests 48 -trace bursty
//	mugisim -capacity -designs mugi,saf -meshes 1x1,2x2,4x4 -parallel 8
//	mugisim -fleet -designs mugi,saf -meshes 1x1,2x2 -replicas 1,2,4 -policy jsq
//	mugisim -autoscale                  # static plan vs online controller, one week
//	mugisim -faults -spares 0,1,2 -mtbf 120 -mttr 60 -nines 0.99
//	mugisim -overload -surge 4          # flash crowd vs admission control, priced
//	mugisim -overload -breaker 0.1      # ... plus circuit breakers over faults
//	mugisim -all -parallel 8            # every paper artifact, 8 workers
//
// See docs/CLI.md for the full flag reference and recipes.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"mugi"
	"mugi/internal/arch"
	"mugi/internal/cliusage"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/sim"
)

// usageGroups maps each flag to its mode group so -h renders a usage
// organized by what the user is trying to do, not one flat alphabetical
// list. Flags absent from every group land under "shared".
var usageGroups = []cliusage.Group{
	{Title: "single-pass simulation (default mode)", Flags: []string{"design", "rows", "mesh", "model", "batch", "seq", "prefill"}},
	{Title: "request-level serving (-serve)", Flags: []string{"serve", "trace", "rate", "requests", "seed", "lengths", "maxbatch", "kvbudget"}},
	{Title: "capacity search (-capacity)", Flags: []string{"capacity", "designs", "meshes"}},
	{Title: "fleet planning (-fleet)", Flags: []string{"fleet", "replicas", "policy", "slo-ttft", "slo-latency", "utilization"}},
	{Title: "fleet autoscaling (-autoscale)", Flags: []string{"autoscale", "week", "max-replicas", "min-replicas"}},
	{Title: "price of nines (-faults)", Flags: []string{"faults", "mtbf", "mttr", "straggler", "spares", "nines"}},
	{Title: "graceful degradation (-overload)", Flags: []string{"overload", "tenants", "surge", "brownout", "breaker"}},
	{Title: "full registry (-all)", Flags: []string{"all"}},
	{Title: "shared"},
}

func main() {
	design := flag.String("design", "mugi", "design: mugi|mugil|carat|sa|saf|sd|sdf|tensor")
	rows := flag.Int("rows", 256, "array height (VLP) or dimension (SA/SD)")
	meshStr := flag.String("mesh", "1x1", "NoC mesh, e.g. 1x1 or 4x4")
	modelName := flag.String("model", "Llama 2 70B (GQA)", "model name (see Table 1)")
	batch := flag.Int("batch", 8, "batch size")
	seq := flag.Int("seq", 4096, "context/sequence length")
	prefill := flag.Bool("prefill", false, "simulate prefill instead of decode")
	all := flag.Bool("all", false, "regenerate every registered experiment instead of one point")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	serveMode := flag.Bool("serve", false, "run a request-level serving scenario instead of one pass")
	traceKind := flag.String("trace", "poisson", "arrival process: poisson|bursty|diurnal")
	rate := flag.Float64("rate", 0.5, "mean arrival rate in requests/s")
	requests := flag.Int("requests", 48, "request count (per probe in -capacity/-fleet)")
	traceSeed := flag.Int64("seed", 1, "trace seed")
	lengths := flag.String("lengths", "chat", "request length profile: chat|rag")
	maxBatch := flag.Int("maxbatch", 0, "decode batch cap (0 = default)")
	kvBudgetGB := flag.Float64("kvbudget", 0, "KV-cache budget in GiB (0 = default 8)")
	capacityMode := flag.Bool("capacity", false, "binary-search the max sustained req/s per (design, mesh) cell")
	designsCSV := flag.String("designs", "mugi,saf", "comma-separated designs for -capacity/-fleet")
	meshesCSV := flag.String("meshes", "1x1,2x2,4x4", "comma-separated meshes for -capacity/-fleet")
	fleetMode := flag.Bool("fleet", false, "plan fleets: SLO capacity, TCO, and price-performance frontiers")
	replicasCSV := flag.String("replicas", "1,2,4", "comma-separated replica counts for -fleet")
	policyName := flag.String("policy", "jsq", "fleet routing policy (round-robin|jsq|affinity) or, with -autoscale, scaling policy (target-util|queue|oracle)")
	sloTTFT := flag.Float64("slo-ttft", 60, "fleet SLO: p99 TTFT bound in seconds (0 = unbounded)")
	sloLatency := flag.Float64("slo-latency", 300, "fleet SLO: p99 latency bound in seconds (0 = unbounded)")
	utilization := flag.Float64("utilization", 0, "fleet TCO target utilization in (0,1] (0 = default 0.6)")
	autoscaleMode := flag.Bool("autoscale", false, "compare the static fleet plan against the online autoscaler (power states + DVFS)")
	week := flag.Bool("week", true, "autoscale horizon: a simulated week (false = one day)")
	maxReplicas := flag.Int("max-replicas", 0, "autoscale: owned replica ceiling (0 = size from the static plan)")
	minReplicas := flag.Int("min-replicas", 1, "autoscale: always-warm replica floor")
	faultsMode := flag.Bool("faults", false, "sweep N+k spare capacity under fault injection: the price of nines")
	mtbf := flag.Float64("mtbf", 120, "faults: mean time between per-replica crashes in seconds")
	mttr := flag.Float64("mttr", 60, "faults: mean time to repair in seconds")
	straggler := flag.Float64("straggler", 0, "faults: probability a replica is a straggler (slowed rounds)")
	sparesCSV := flag.String("spares", "0,1,2", "faults: comma-separated spare counts for the N+k axis")
	ninesTarget := flag.Float64("nines", 0.99, "faults: availability target for the cheapest-config verdict, in (0,1]")
	overloadMode := flag.Bool("overload", false, "demo graceful degradation: a flash crowd against tenanted admission control, priced by class")
	tenantsStr := flag.String("tenants", "interactive:0.3,standard:0.4,best-effort:0.3", "overload: tenant mix as class:share[,class:share...]")
	surge := flag.Float64("surge", 4, "overload: surge factor over the baseline rate (must exceed 1)")
	brownoutLadder := flag.Int("brownout", 3, "overload: brownout ladder depth, 1..3 rungs")
	breakerThreshold := flag.Float64("breaker", 0, "overload: circuit-breaker downtime threshold in (0,1] (0 = breakers off; arms -mtbf/-mttr faults)")
	flag.Usage = cliusage.Grouped(flag.CommandLine,
		"mugisim — architecture, serving, capacity, and fleet simulations.\nUsage: mugisim [mode flag] [flags]",
		usageGroups)
	flag.Parse()

	// set records which flags the user spelled out, so mode-specific
	// defaults never override an explicit choice.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	modes := 0
	for _, on := range []bool{*all, *serveMode, *capacityMode, *fleetMode, *autoscaleMode, *faultsMode, *overloadMode} {
		if on {
			modes++
		}
	}
	if err := validateFlags(modes, *batch, *seq, *minReplicas, *maxReplicas, *rate, *requests,
		*parallel, *mtbf, *mttr, *straggler, *ninesTarget,
		*sloTTFT, *sloLatency, *utilization, *kvBudgetGB); err != nil {
		usageError(err)
	}
	if err := validateOverloadFlags(*overloadMode, set["surge"], *surge, *brownoutLadder, *breakerThreshold); err != nil {
		usageError(err)
	}

	if *all {
		runAll(*parallel)
		return
	}
	if *autoscaleMode {
		// The autoscale demo has its own sensible defaults (a diurnal
		// trace on a multi-replica-worthy mesh at a rate with a real
		// day/night swing); flags the user set explicitly always win.
		if !set["trace"] {
			*traceKind = "diurnal"
		}
		if !set["model"] {
			*modelName = "Llama 2 7B"
		}
		if !set["mesh"] {
			*meshStr = "4x4"
		}
		if !set["rate"] {
			*rate = 0.1
		}
		if !set["policy"] {
			*policyName = "target-util"
		}
		if !set["seed"] {
			*traceSeed = 42
		}
		if !set["requests"] {
			*requests = 0 // sized from the rate and horizon below
		}
		runAutoscale(*design, *rows, *meshStr, *modelName, *traceKind, *lengths,
			*policyName, *rate, *requests, *traceSeed, *maxBatch, *kvBudgetGB,
			*week, *maxReplicas, *minReplicas, *sloTTFT, *sloLatency, *parallel)
		return
	}
	if *faultsMode {
		// The faults demo defaults to a bursty trace on a small faulty
		// fleet whose baseline sheds visibly, so the spare-capacity axis
		// has a story to tell; explicit flags always win.
		if !set["trace"] {
			*traceKind = "bursty"
		}
		if !set["model"] {
			*modelName = "Llama 2 7B"
		}
		if !set["meshes"] {
			*meshesCSV = "2x2"
		}
		if !set["replicas"] {
			*replicasCSV = "2"
		}
		if !set["designs"] {
			*designsCSV = "mugi,saf"
		}
		if !set["rate"] {
			*rate = 0.15
		}
		if !set["seed"] {
			*traceSeed = 7
		}
		runFaults(*designsCSV, *meshesCSV, *replicasCSV, *sparesCSV, *rows, *modelName,
			*traceKind, *lengths, *policyName, *rate, *requests, *traceSeed,
			*maxBatch, *kvBudgetGB, *mtbf, *mttr, *straggler, *ninesTarget, *parallel)
		return
	}
	if *overloadMode {
		// The overload demo fields a flash crowd against a small tenanted
		// fleet whose admission controller has real work to do; explicit
		// flags always win.
		if !set["trace"] {
			*traceKind = "flashcrowd"
		}
		if !set["model"] {
			*modelName = "Llama 2 7B"
		}
		if !set["mesh"] {
			*meshStr = "4x4"
		}
		if !set["rate"] {
			*rate = 0.5
		}
		if !set["requests"] {
			*requests = 600
		}
		if !set["seed"] {
			*traceSeed = 7
		}
		runOverload(*design, *rows, *meshStr, *modelName, *traceKind, *lengths, *tenantsStr,
			*rate, *surge, *requests, *traceSeed, *maxBatch, *kvBudgetGB,
			*brownoutLadder, *breakerThreshold, *mtbf, *mttr, *parallel)
		return
	}
	if *capacityMode {
		runCapacity(*designsCSV, *meshesCSV, *rows, *modelName, *traceKind,
			*lengths, *requests, *traceSeed, *maxBatch, *kvBudgetGB, *parallel)
		return
	}
	if *fleetMode {
		runFleet(*designsCSV, *meshesCSV, *replicasCSV, *rows, *modelName, *traceKind,
			*lengths, *policyName, *requests, *traceSeed, *maxBatch, *kvBudgetGB,
			*sloTTFT, *sloLatency, *utilization, *parallel)
		return
	}
	d, err := buildDesign(*design, *rows)
	if err != nil {
		fatal(err)
	}
	m, err := model.ByName(*modelName)
	if err != nil {
		fatal(err)
	}
	mesh, err := parseMesh(*meshStr)
	if err != nil {
		fatal(err)
	}
	if *serveMode {
		runServe(d, m, mesh, *traceKind, *lengths, *rate, *requests, *traceSeed, *maxBatch, *kvBudgetGB)
		return
	}
	var w model.Workload
	if *prefill {
		w = m.PrefillOps(*batch, *seq)
	} else {
		w = m.DecodeOps(*batch, *seq)
	}
	res := sim.Simulate(sim.Params{Design: d, Mesh: mesh}, w)
	tokens := w.TokensPerPass()

	fmt.Printf("design        %s  mesh %s\n", d.Name, mesh)
	fmt.Printf("workload      %s batch %d seq %d (decode=%v)\n", m.Name, *batch, *seq, w.Decode)
	fmt.Printf("throughput    %.3f tokens/s\n", res.TokensPerSecond)
	fmt.Printf("latency       %.4f s (compute %.4f, memory %.4f)\n", res.Seconds, res.ComputeSeconds, res.MemorySeconds)
	fmt.Printf("utilization   %.1f%%\n", res.Utilization*100)
	fmt.Printf("energy        %.4f J/pass  (%.2f mJ/token)\n", res.DynamicEnergy, res.EnergyPerToken(tokens)*1e3)
	fmt.Printf("power         %.3f W (leakage %.3f W)\n", res.PowerWatts, res.LeakageWatts)
	fmt.Printf("efficiency    %.2f tokens/J  %.3f tokens/s/W\n", res.TokensPerJoule(tokens), res.TokensPerSecondPerWatt())
	fmt.Printf("DRAM traffic  %.2f GB/pass\n", float64(res.DRAMBytes)/1e9)
	area := d.Area(arch.Cost45nm)
	fmt.Printf("area          %.2f mm2 (array %.2f, SRAM %.2f)\n", area.Total(), area.ArrayTotal(), area.SRAM)
	fmt.Println("latency breakdown (array cycles):")
	for _, cls := range []model.OpClass{model.Projection, model.Attention, model.FFN, model.Nonlinear} {
		fmt.Printf("  %-10v %14.0f (%.1f%%)\n", cls, res.CyclesByClass[cls],
			res.CyclesByClass[cls]/res.TotalCycles*100)
	}
}

// runServe drives one request-level serving scenario and prints the
// report.
func runServe(d arch.Design, m model.Config, mesh noc.Mesh,
	traceKind, lengths string, rate float64, requests int, seed int64,
	maxBatch int, kvBudgetGB float64) {
	kind, err := mugi.ParseTraceKind(traceKind)
	if err != nil {
		fatal(err)
	}
	profile, err := mugi.ParseLengthProfile(lengths)
	if err != nil {
		fatal(err)
	}
	tr, err := mugi.NewTrace(mugi.TraceConfig{
		Kind: kind, Rate: rate, Requests: requests, Seed: seed, Lengths: profile,
	})
	if err != nil {
		fatal(err)
	}
	rep, err := mugi.Serve(mugi.ServeConfig{
		Model: m, Design: d, Mesh: mesh,
		MaxBatch:      maxBatch,
		KVBudgetBytes: int64(kvBudgetGB * (1 << 30)),
	}, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Print(rep.String())
}

// runCapacity binary-searches the max sustained request rate of one
// replica of every (design, mesh) cell of the grid, as one-replica fleet
// plan cells sharded across the runner pool, and prints the sizing
// table. Cells are searched with the default bracketing
// (fleet.DefaultMinRate..DefaultMaxRate) and goodput, and no SLO.
func runCapacity(designsCSV, meshesCSV string, rows int, modelName, traceKind, lengths string,
	requests int, seed int64, maxBatch int, kvBudgetGB float64, parallel int) {
	m, err := model.ByName(modelName)
	if err != nil {
		fatal(err)
	}
	kind, err := mugi.ParseTraceKind(traceKind)
	if err != nil {
		fatal(err)
	}
	profile, err := mugi.ParseLengthProfile(lengths)
	if err != nil {
		fatal(err)
	}
	if parallel != 0 {
		runner.SetParallelism(parallel)
	}
	results := mugi.PlanFleet(mugi.FleetPlanSpec{
		Base:  mugi.ServeConfig{Model: m, MaxBatch: maxBatch, KVBudgetBytes: int64(kvBudgetGB * (1 << 30))},
		Cells: mugi.FleetGrid(parseDesigns(designsCSV, rows), parseMeshes(meshesCSV), []int{1}),
		Trace: mugi.TraceConfig{Kind: kind, Requests: requests, Seed: seed, Lengths: profile},
		// Six bisections, one more than the planner's default, for a
		// finer sizing table.
		Iters: 6,
	})
	fmt.Printf("capacity search: %s, %s %s traffic, %d requests/probe, seed %d\n",
		m.Name, traceKind, profile.Name, requests, seed)
	fmt.Printf("%-12s %6s %10s %7s %10s %9s %9s\n",
		"design", "mesh", "capacity", "probes", "tok/s out", "TTFT p99", "p99 lat")
	for _, res := range results {
		if res.Err != nil {
			fmt.Printf("%-12s %6s ERROR %v\n", res.Design, res.Mesh, res.Err)
			continue
		}
		if res.Capacity == 0 {
			fmt.Printf("%-12s %6s  unsustainable at floor rate\n", res.Design, res.Mesh)
			continue
		}
		at := res.At.Fleet
		fmt.Printf("%-12s %6s %10.4f %7d %10.2f %8.1fs %8.1fs\n",
			res.Design, res.Mesh, res.Capacity, res.Probes,
			at.TokensPerSecond, at.TTFT.P99, at.Latency.P99)
	}
}

// runFleet plans the design × mesh × replicas grid against the SLO and
// prints the priced cells plus the dominated-cell-pruned perf/$ and
// perf/W frontiers.
func runFleet(designsCSV, meshesCSV, replicasCSV string, rows int, modelName, traceKind,
	lengths, policyName string, requests int, seed int64, maxBatch int, kvBudgetGB float64,
	sloTTFT, sloLatency, utilization float64, parallel int) {
	m, err := model.ByName(modelName)
	if err != nil {
		fatal(err)
	}
	kind, err := mugi.ParseTraceKind(traceKind)
	if err != nil {
		fatal(err)
	}
	profile, err := mugi.ParseLengthProfile(lengths)
	if err != nil {
		fatal(err)
	}
	policy, err := mugi.ParseFleetPolicy(policyName)
	if err != nil {
		fatal(err)
	}
	var replicas []int
	for _, s := range strings.Split(replicasCSV, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			fatal(fmt.Errorf("bad replica count %q", s))
		}
		replicas = append(replicas, n)
	}
	if parallel != 0 {
		runner.SetParallelism(parallel)
	}
	spec := mugi.FleetPlanSpec{
		Base: mugi.ServeConfig{
			Model: m, MaxBatch: maxBatch, KVBudgetBytes: int64(kvBudgetGB * (1 << 30)),
		},
		Cells:  mugi.FleetGrid(parseDesigns(designsCSV, rows), parseMeshes(meshesCSV), replicas),
		Policy: policy,
		Trace:  mugi.TraceConfig{Kind: kind, Requests: requests, Seed: seed, Lengths: profile},
		SLO:    mugi.FleetSLO{TTFTP99: sloTTFT, LatencyP99: sloLatency},
		Book:   mugi.PriceBook{Utilization: utilization},
	}
	results := mugi.PlanFleet(spec)
	fmt.Printf("fleet plan: %s, %s %s probes (%d requests, seed %d), %s routing\n",
		m.Name, traceKind, profile.Name, spec.Trace.Requests, seed, policy)
	fmt.Printf("SLO: TTFT p99 <= %gs, latency p99 <= %gs\n", sloTTFT, sloLatency)
	fmt.Printf("%-12s %5s %4s %9s %9s %9s %10s %9s\n",
		"design", "mesh", "reps", "capacity", "$/hour", "$/1k req", "$/Mtok", "watts")
	for _, res := range results {
		if res.Err != nil {
			fmt.Printf("%-12s %5s %4d ERROR %v\n", res.Design, res.Mesh, res.Replicas, res.Err)
			continue
		}
		if res.Capacity == 0 {
			fmt.Printf("%-12s %5s %4d  cannot hold the SLO at the floor rate\n", res.Design, res.Mesh, res.Replicas)
			continue
		}
		fmt.Printf("%-12s %5s %4d %9.4f %9.4f %9.4f %10.4f %9.2f\n",
			res.Design, res.Mesh, res.Replicas, res.Capacity,
			res.TCO.DollarsPerHour, res.TCO.DollarsPer1k, res.TCO.DollarsPerMTok, res.TCO.AvgWatts)
	}
	for _, axis := range []mugi.FleetFrontierAxis{mugi.FrontierByDollar, mugi.FrontierByWatt} {
		front := mugi.FleetFrontier(results, axis)
		fmt.Printf("-- %s frontier (%d of %d cells) --\n", axis, len(front), len(results))
		for _, f := range front {
			fmt.Printf("%-12s %5s x%d  %.4f req/s  $%.4f/h  %.2f W\n",
				f.Design, f.Mesh, f.Replicas, f.Capacity, f.TCO.DollarsPerHour, f.TCO.AvgWatts)
		}
	}
}

// runAutoscale compares the static fleet plan against the online
// autoscaler on one long diurnal trace: first size the owned fleet the
// way PR 5's planner would buy it (the cheapest replica count whose
// SLO-compliant capacity covers the peak rate), then run the same
// stream through the always-on baseline and the dynamic controller and
// report both in $/day and SLO-violation minutes.
func runAutoscale(designName string, rows int, meshStr, modelName, traceKind, lengths,
	policyName string, rate float64, requests int, seed int64, maxBatch int, kvBudgetGB float64,
	week bool, maxReplicas, minReplicas int, sloTTFT, sloLatency float64, parallel int) {
	d, err := buildDesign(designName, rows)
	if err != nil {
		fatal(err)
	}
	m, err := model.ByName(modelName)
	if err != nil {
		fatal(err)
	}
	mesh, err := parseMesh(meshStr)
	if err != nil {
		fatal(err)
	}
	kind, err := mugi.ParseTraceKind(traceKind)
	if err != nil {
		fatal(err)
	}
	profile, err := mugi.ParseLengthProfile(lengths)
	if err != nil {
		fatal(err)
	}
	policy, err := mugi.ParseAutoscalePolicy(policyName)
	if err != nil {
		fatal(err)
	}
	if parallel != 0 {
		runner.SetParallelism(parallel)
	}
	horizon := 86400.0
	if week {
		horizon *= 7
	}
	if requests == 0 {
		// Over whole diurnal periods the mean rate is the nominal rate,
		// so this request count spans the horizon.
		requests = int(rate * horizon)
	}
	replica := mugi.ServeConfig{
		Model: m, Design: d, Mesh: mesh,
		MaxBatch: maxBatch, KVBudgetBytes: int64(kvBudgetGB * (1 << 30)),
	}
	// Peak arrival rate the static plan must cover: the top of the
	// diurnal swing (TraceConfig's default swing is 0.8), or the nominal
	// rate for flat arrival processes.
	peak := rate
	if kind == mugi.TraceDiurnal {
		peak = rate * 1.8
	}
	if maxReplicas == 0 {
		results := mugi.PlanFleet(mugi.FleetPlanSpec{
			Base:   replica,
			Cells:  mugi.FleetGrid([]mugi.Design{d}, []mugi.Mesh{mesh}, []int{1, 2, 4, 8}),
			Policy: mugi.FleetJSQ,
			Trace:  mugi.TraceConfig{Kind: mugi.TracePoisson, Requests: 24, Seed: seed, Lengths: profile},
			SLO:    mugi.FleetSLO{TTFTP99: sloTTFT, LatencyP99: sloLatency},
		})
		for _, res := range results {
			if res.Err == nil && res.Capacity >= peak {
				maxReplicas = res.Replicas
				fmt.Printf("static plan: %d x %s %s covers the %.3f req/s peak (cell capacity %.4f req/s)\n",
					res.Replicas, res.Design, res.Mesh, peak, res.Capacity)
				break
			}
		}
		if maxReplicas == 0 {
			fatal(fmt.Errorf("no planned cell covers the %.3f req/s peak; raise -max-replicas or shrink -rate", peak))
		}
	}
	cmp, err := mugi.CompareAutoscale(mugi.AutoscaleConfig{
		Replica:     replica,
		MinReplicas: minReplicas,
		MaxReplicas: maxReplicas,
		Policy:      policy,
		SLO:         mugi.AutoscaleSLO{TTFT: sloTTFT, Latency: sloLatency},
	}, mugi.TraceConfig{
		Kind: kind, Rate: rate, Requests: requests, Seed: seed,
		Lengths: profile, Period: 86400,
	})
	if err != nil {
		fatal(err)
	}
	fmt.Print(cmp.String())
}

// runFaults sweeps the design × mesh × replicas grid crossed with the
// N+k spares axis under seeded fault injection and prints the
// availability table, the price-of-nines frontier, and the cheapest
// configuration meeting the -nines availability target.
func runFaults(designsCSV, meshesCSV, replicasCSV, sparesCSV string, rows int,
	modelName, traceKind, lengths, policyName string, rate float64, requests int,
	seed int64, maxBatch int, kvBudgetGB, mtbf, mttr, straggler, ninesTarget float64,
	parallel int) {
	m, err := model.ByName(modelName)
	if err != nil {
		fatal(err)
	}
	kind, err := mugi.ParseTraceKind(traceKind)
	if err != nil {
		fatal(err)
	}
	profile, err := mugi.ParseLengthProfile(lengths)
	if err != nil {
		fatal(err)
	}
	policy, err := mugi.ParseFleetPolicy(policyName)
	if err != nil {
		fatal(err)
	}
	replicas, err := parseCounts(replicasCSV, 1)
	if err != nil {
		fatal(err)
	}
	spares, err := parseCounts(sparesCSV, 0)
	if err != nil {
		fatal(err)
	}
	if parallel != 0 {
		runner.SetParallelism(parallel)
	}
	spec := mugi.NinesSpec{
		Base: mugi.ServeConfig{
			Model: m, MaxBatch: maxBatch, KVBudgetBytes: int64(kvBudgetGB * (1 << 30)),
		},
		Cells:  mugi.FleetGrid(parseDesigns(designsCSV, rows), parseMeshes(meshesCSV), replicas),
		Spares: spares,
		Policy: policy,
		Trace:  mugi.TraceConfig{Kind: kind, Rate: rate, Requests: requests, Seed: seed, Lengths: profile},
		Faults: mugi.FaultSpec{MTBF: mtbf, MTTR: mttr, StragglerProb: straggler, Seed: seed},
	}
	results := mugi.PlanNines(spec)
	fmt.Printf("price of nines: %s, %s %s probes (%d requests at %.3f req/s, seed %d), %s routing\n",
		m.Name, traceKind, profile.Name, requests, rate, seed, policy)
	fmt.Printf("faults: MTBF %gs  MTTR %gs  straggler prob %g\n", mtbf, mttr, straggler)
	for _, res := range results {
		fmt.Println(res)
	}
	front := mugi.NinesFrontier(results)
	fmt.Printf("-- price-of-nines frontier (%d of %d points) --\n", len(front), len(results))
	for _, f := range front {
		fmt.Println(f)
	}
	if best, ok := mugi.CheapestNines(results, ninesTarget); ok {
		fmt.Printf("cheapest at >= %g availability: %s %s N=%d+%d  $%.4f/1k  availability %.4f%% (%s)\n",
			ninesTarget, best.Design, best.Mesh, best.Replicas, best.Spares,
			best.DollarsPer1k, best.Availability*100, mugi.NinesString(best.Availability))
	} else {
		fmt.Printf("no planned point reaches availability %g — add spares or relax -nines\n", ninesTarget)
	}
}

// runOverload fields a surging tenanted trace against a two-replica
// fleet armed with admission control, strict-priority dispatch and a
// brownout ladder, then prices the isolation premium against the same
// silicon run as a shared best-effort fleet. With -breaker above zero
// the fleet also injects -mtbf/-mttr faults and arms per-replica
// circuit breakers over them.
func runOverload(designName string, rows int, meshStr, modelName, traceKind, lengths,
	tenantsStr string, rate, surge float64, requests int, seed int64,
	maxBatch int, kvBudgetGB float64, brownoutLadder int,
	breakerThreshold, mtbf, mttr float64, parallel int) {
	d, err := buildDesign(designName, rows)
	if err != nil {
		fatal(err)
	}
	m, err := model.ByName(modelName)
	if err != nil {
		fatal(err)
	}
	mesh, err := parseMesh(meshStr)
	if err != nil {
		fatal(err)
	}
	kind, err := mugi.ParseTraceKind(traceKind)
	if err != nil {
		fatal(err)
	}
	profile, err := mugi.ParseLengthProfile(lengths)
	if err != nil {
		fatal(err)
	}
	tenants, err := mugi.ParseTenants(tenantsStr)
	if err != nil {
		fatal(err)
	}
	if parallel != 0 {
		runner.SetParallelism(parallel)
	}
	if maxBatch == 0 {
		// Uncapped, overload pools inside the KV-limited decode batch and
		// the queue — the admission controller's whole domain — stays empty.
		maxBatch = 8
	}
	replica := mugi.ServeConfig{
		Model: m, Design: d, Mesh: mesh,
		MaxQueue: 12, MaxBatch: maxBatch,
		KVBudgetBytes: int64(kvBudgetGB * (1 << 30)),
		Admission:     &mugi.AdmissionSpec{},
		Brownout: &mugi.BrownoutSpec{
			Steps: mugi.DefaultBrownoutSteps()[:brownoutLadder], HighWater: 8, Dwell: 10,
		},
	}
	fleetCfg := mugi.FleetConfig{Replica: replica, Replicas: 2, Policy: mugi.FleetJSQ}
	if breakerThreshold > 0 {
		fleetCfg.Faults = mugi.FaultSpec{MTBF: mtbf, MTTR: mttr, Seed: seed}
		fleetCfg.MaxRedispatch = 2
		fleetCfg.Breaker = &mugi.BreakerSpec{Window: 300, Threshold: breakerThreshold, Cooldown: 60, Probes: 1}
	}
	spec := mugi.PrioritySpec{
		Fleet: fleetCfg,
		Trace: mugi.TraceConfig{
			Kind: kind, Rate: rate, Requests: requests, Seed: seed, Lengths: profile,
			SurgeFactor: surge, SurgeSpan: 120, SurgePeriod: 600,
			Tenants: tenants,
		},
	}
	spec.SLOs[mugi.TenantInteractive] = mugi.ClassSLO{TTFTP99: 15, LatencyP99: 60}
	spec.SLOs[mugi.TenantStandard] = mugi.ClassSLO{TTFTP99: 60, LatencyP99: 120}
	spec.SLOs[mugi.TenantBestEffort] = mugi.ClassSLO{LatencyP99: 900}
	res, err := mugi.PlanPriority(spec)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("graceful degradation: %s, %s %s x2, %s traffic %.2f req/s with %gx surges, seed %d\n",
		m.Name, d.Name, mesh, traceKind, rate, surge, seed)
	fmt.Print(res.String())
	tf := res.Tenanted.Fleet
	fmt.Printf("degradation under the surge: %d evicted  %d degraded  %d shed  brownout max level %d (%.0f s)\n",
		tf.Evicted, tf.Degraded, tf.Shed, tf.BrownoutMaxLevel, tf.BrownoutSeconds)
	if breakerThreshold > 0 {
		trips := 0
		for _, n := range res.Tenanted.BreakerTrips {
			trips += n
		}
		fmt.Printf("circuit breakers (MTBF %gs, MTTR %gs, threshold %.0f%%): %d trips %v  availability %.4f\n",
			mtbf, mttr, breakerThreshold*100, trips, res.Tenanted.BreakerTrips, tf.Availability)
	}
	sf := res.Shared.Fleet
	slo := spec.SLOs[mugi.TenantInteractive]
	verdict := "MISSED"
	if slo.Met(sf.TTFT.P99, sf.Latency.P99) {
		verdict = "met"
	}
	fmt.Printf("shared fleet tail everyone shares: ttft p99 %.2f s  latency p99 %.2f s  (interactive slo %gs: %s)\n",
		sf.TTFT.P99, sf.Latency.P99, slo.TTFTP99, verdict)
}

// runAll regenerates the full registry on the bounded worker pool and
// prints each artifact in paper order.
func runAll(parallel int) {
	for _, res := range mugi.RunAll(mugi.Parallelism(parallel)) {
		fmt.Println(res.Text)
	}
}

// parseDesigns builds every design of a comma-separated spec, fataling
// on the first unknown name.
func parseDesigns(csv string, rows int) []arch.Design {
	var out []arch.Design
	for _, s := range strings.Split(csv, ",") {
		d, err := buildDesign(strings.TrimSpace(s), rows)
		if err != nil {
			fatal(err)
		}
		out = append(out, d)
	}
	return out
}

// parseMeshes parses every mesh of a comma-separated spec.
func parseMeshes(csv string) []noc.Mesh {
	var out []noc.Mesh
	for _, s := range strings.Split(csv, ",") {
		mesh, err := parseMesh(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		out = append(out, mesh)
	}
	return out
}

func buildDesign(kind string, rows int) (arch.Design, error) {
	return arch.ByName(kind, rows)
}

func parseMesh(s string) (noc.Mesh, error) {
	var r, c int
	if _, err := fmt.Sscanf(s, "%dx%d", &r, &c); err != nil {
		return noc.Mesh{}, fmt.Errorf("bad mesh %q (want RxC)", s)
	}
	if r < 1 || c < 1 {
		return noc.Mesh{}, fmt.Errorf("bad mesh %q", s)
	}
	return noc.NewMesh(r, c), nil
}

// parseCounts parses a comma-separated list of non-negative integers,
// rejecting anything below the floor.
func parseCounts(csv string, floor int) ([]int, error) {
	var out []int
	for _, s := range strings.Split(csv, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < floor {
			return nil, fmt.Errorf("bad count %q (want integers >= %d)", s, floor)
		}
		out = append(out, n)
	}
	return out, nil
}

// validateFlags rejects contradictory flag combinations up front, before
// any mode starts simulating — one mode flag at a time, a non-empty
// single-pass shape, a replica floor below the ceiling, and
// rates/probabilities, SLO bounds, the TCO utilization and the KV budget
// inside their domains.
func validateFlags(modes, batch, seq, minReplicas, maxReplicas int, rate float64, requests,
	parallel int, mtbf, mttr, straggler, ninesTarget,
	sloTTFT, sloLatency, utilization, kvBudgetGB float64) error {
	if modes > 1 {
		return fmt.Errorf("choose one mode flag: -all, -serve, -capacity, -fleet, -autoscale, -faults, or -overload")
	}
	if batch < 1 {
		return fmt.Errorf("-batch %d must be at least 1", batch)
	}
	if seq < 1 {
		return fmt.Errorf("-seq %d must be at least 1", seq)
	}
	if maxReplicas > 0 && minReplicas > maxReplicas {
		return fmt.Errorf("-min-replicas %d exceeds -max-replicas %d", minReplicas, maxReplicas)
	}
	if minReplicas < 0 {
		return fmt.Errorf("-min-replicas %d must be non-negative", minReplicas)
	}
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("-rate %g must be positive and finite", rate)
	}
	if requests < 0 {
		return fmt.Errorf("-requests %d must be non-negative", requests)
	}
	if parallel < 0 {
		return fmt.Errorf("-parallel %d must be non-negative", parallel)
	}
	if !(mtbf >= 0) || math.IsInf(mtbf, 1) {
		return fmt.Errorf("-mtbf %g must be finite and non-negative", mtbf)
	}
	if !(mttr >= 0) || math.IsInf(mttr, 1) {
		return fmt.Errorf("-mttr %g must be finite and non-negative", mttr)
	}
	if !(straggler >= 0 && straggler <= 1) {
		return fmt.Errorf("-straggler %g must be a probability in [0,1]", straggler)
	}
	if !(ninesTarget > 0 && ninesTarget <= 1) {
		return fmt.Errorf("-nines %g must be an availability in (0,1]", ninesTarget)
	}
	if !(sloTTFT >= 0) || math.IsInf(sloTTFT, 1) {
		return fmt.Errorf("-slo-ttft %g must be finite and non-negative (0 = unbounded)", sloTTFT)
	}
	if !(sloLatency >= 0) || math.IsInf(sloLatency, 1) {
		return fmt.Errorf("-slo-latency %g must be finite and non-negative (0 = unbounded)", sloLatency)
	}
	if !(utilization >= 0 && utilization <= 1) {
		return fmt.Errorf("-utilization %g must be in (0,1], or 0 for the default", utilization)
	}
	// The budget becomes int64(kvBudgetGB * 2^30) bytes.
	if !(kvBudgetGB >= 0 && kvBudgetGB < math.MaxInt64/(1<<30)) {
		return fmt.Errorf("-kvbudget %g GiB must be non-negative and under 8 EiB (0 = default)", kvBudgetGB)
	}
	return nil
}

// validateOverloadFlags rejects overload-flag contradictions: -surge
// spelled out without the mode it shapes, a brownout ladder with no
// rungs (or more rungs than the built-in ladder has), and a breaker
// threshold outside its (0,1] domain.
func validateOverloadFlags(overloadMode, surgeSet bool, surge float64, brownoutLadder int, breakerThreshold float64) error {
	if surgeSet && !overloadMode {
		return fmt.Errorf("-surge only shapes the -overload flash crowd; add -overload")
	}
	if overloadMode && surge <= 1 {
		return fmt.Errorf("-surge %g must exceed 1 (it multiplies the baseline rate)", surge)
	}
	if brownoutLadder < 1 || brownoutLadder > 3 {
		return fmt.Errorf("-brownout %d must be a ladder depth in 1..3", brownoutLadder)
	}
	if !(breakerThreshold >= 0 && breakerThreshold <= 1) {
		return fmt.Errorf("-breaker %g must be a downtime fraction in (0,1], or 0 to disable", breakerThreshold)
	}
	return nil
}

// usageError reports a flag contradiction and exits with the
// conventional usage status.
func usageError(err error) {
	fmt.Fprintln(os.Stderr, "mugisim:", err)
	fmt.Fprintln(os.Stderr, "run 'mugisim -h' for the flag reference")
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mugisim:", err)
	os.Exit(1)
}
