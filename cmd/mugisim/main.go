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
// The exit status is 0 on success, 1 when a run fails and 2 for a usage
// error. See docs/CLI.md for the full flag reference and recipes.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
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

// options holds every flag's value. The modes read nothing else.
type options struct {
	// The mode flags: at most one is set, and none selects the single pass.
	all, serve, capacity, fleet, autoscale, faults, overload bool

	design, mesh, model string
	rows, batch, seq    int
	prefill             bool
	parallel            int

	traceKind, lengths string
	rate, kvBudgetGiB  float64
	requests, maxBatch int
	seed               int64

	designs, meshes, replicas, policy string
	sloTTFT, sloLatency, utilization  float64

	week                     bool
	maxReplicas, minReplicas int

	spares                       string
	mtbf, mttr, straggler, nines float64

	tenants        string
	surge, breaker float64
	brownoutLadder int

	// set records which flags the command line spelled out, so mode
	// defaults never override an explicit choice.
	set map[string]bool
}

// newOptions binds every flag to a field of one options value, on a flag
// set that prints its usage and parse errors to stderr.
func newOptions(stderr io.Writer) (*options, *flag.FlagSet) {
	o := &options{set: map[string]bool{}}
	fs := flag.NewFlagSet("mugisim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.design, "design", "mugi", "design: mugi|mugil|carat|sa|saf|sd|sdf|tensor")
	fs.IntVar(&o.rows, "rows", 256, "array height (VLP) or dimension (SA/SD)")
	fs.StringVar(&o.mesh, "mesh", "1x1", "NoC mesh, e.g. 1x1 or 4x4")
	fs.StringVar(&o.model, "model", "Llama 2 70B (GQA)", "model name (see Table 1)")
	fs.IntVar(&o.batch, "batch", 8, "batch size")
	fs.IntVar(&o.seq, "seq", 4096, "context/sequence length")
	fs.BoolVar(&o.prefill, "prefill", false, "simulate prefill instead of decode")
	fs.BoolVar(&o.all, "all", false, "regenerate every registered experiment instead of one point")
	fs.IntVar(&o.parallel, "parallel", 0, "worker pool size (0 = GOMAXPROCS)")
	fs.BoolVar(&o.serve, "serve", false, "run a request-level serving scenario instead of one pass")
	fs.StringVar(&o.traceKind, "trace", "poisson", "arrival process: poisson|bursty|diurnal|flashcrowd|retrystorm")
	fs.Float64Var(&o.rate, "rate", 0.5, "mean arrival rate in requests/s")
	fs.IntVar(&o.requests, "requests", 48, "request count (per probe in -capacity/-fleet)")
	fs.Int64Var(&o.seed, "seed", 1, "trace seed")
	fs.StringVar(&o.lengths, "lengths", "chat", "request length profile: chat|rag")
	fs.IntVar(&o.maxBatch, "maxbatch", 0, "decode batch cap (0 = default)")
	fs.Float64Var(&o.kvBudgetGiB, "kvbudget", 0, "KV-cache budget in GiB (0 = default 8)")
	fs.BoolVar(&o.capacity, "capacity", false, "binary-search the max sustained req/s per (design, mesh) cell")
	fs.StringVar(&o.designs, "designs", "mugi,saf", "comma-separated designs for -capacity/-fleet")
	fs.StringVar(&o.meshes, "meshes", "1x1,2x2,4x4", "comma-separated meshes for -capacity/-fleet")
	fs.BoolVar(&o.fleet, "fleet", false, "plan fleets: SLO capacity, TCO, and price-performance frontiers")
	fs.StringVar(&o.replicas, "replicas", "1,2,4", "comma-separated replica counts for -fleet")
	fs.StringVar(&o.policy, "policy", "jsq", "fleet routing policy (round-robin|jsq|affinity) or, with -autoscale, scaling policy (target-util|queue|oracle)")
	fs.Float64Var(&o.sloTTFT, "slo-ttft", 60, "fleet SLO: p99 TTFT bound in seconds (0 = unbounded)")
	fs.Float64Var(&o.sloLatency, "slo-latency", 300, "fleet SLO: p99 latency bound in seconds (0 = unbounded)")
	fs.Float64Var(&o.utilization, "utilization", 0, "fleet TCO target utilization in (0,1] (0 = default 0.6)")
	fs.BoolVar(&o.autoscale, "autoscale", false, "compare the static fleet plan against the online autoscaler (power states + DVFS)")
	fs.BoolVar(&o.week, "week", true, "autoscale horizon: a simulated week (false = one day)")
	fs.IntVar(&o.maxReplicas, "max-replicas", 0, "autoscale: owned replica ceiling (0 = size from the static plan)")
	fs.IntVar(&o.minReplicas, "min-replicas", 1, "autoscale: always-warm replica floor")
	fs.BoolVar(&o.faults, "faults", false, "sweep N+k spare capacity under fault injection: the price of nines")
	fs.Float64Var(&o.mtbf, "mtbf", 120, "faults: mean time between per-replica crashes in seconds")
	fs.Float64Var(&o.mttr, "mttr", 60, "faults: mean time to repair in seconds")
	fs.Float64Var(&o.straggler, "straggler", 0, "faults: probability a replica is a straggler (slowed rounds)")
	fs.StringVar(&o.spares, "spares", "0,1,2", "faults: comma-separated spare counts for the N+k axis")
	fs.Float64Var(&o.nines, "nines", 0.99, "faults: availability target for the cheapest-config verdict, in (0,1]")
	fs.BoolVar(&o.overload, "overload", false, "demo graceful degradation: a flash crowd against tenanted admission control, priced by class")
	fs.StringVar(&o.tenants, "tenants", "interactive:0.3,standard:0.4,best-effort:0.3", "overload: tenant mix as class:share[,class:share...]")
	fs.Float64Var(&o.surge, "surge", 4, "overload: surge factor over the baseline rate (must exceed 1)")
	fs.IntVar(&o.brownoutLadder, "brownout", 3, "overload: brownout ladder depth, 1..3 rungs")
	fs.Float64Var(&o.breaker, "breaker", 0, "overload: circuit-breaker downtime threshold in (0,1] (0 = breakers off; arms -mtbf/-mttr faults)")
	fs.Usage = cliusage.Grouped(fs,
		"mugisim — architecture, serving, capacity, and fleet simulations.\nUsage: mugisim [mode flag] [flags]",
		usageGroups)
	return o, fs
}

// modes runs each mode by its flag's name; "" is the single pass, which
// runs when no mode flag is set.
var modes = map[string]func(io.Writer, *options) error{
	"":          runPoint,
	"serve":     runServe,
	"capacity":  runCapacity,
	"fleet":     runFleet,
	"autoscale": runAutoscale,
	"faults":    runFaults,
	"overload":  runOverload,
	"all":       runAll,
}

// modeDefaults holds the demo modes' own defaults, applied to the flags
// the command line did not set. The autoscale demo runs a diurnal trace
// with a real day/night swing on a multi-replica-worthy mesh, and its
// -requests 0 is sized from the rate and horizon. The faults demo runs a
// bursty trace on a small faulty fleet whose baseline sheds visibly, so
// the spare-capacity axis has a story to tell. The overload demo fields a
// flash crowd against a small tenanted fleet whose admission controller
// has real work to do.
var modeDefaults = map[string]map[string]string{
	"autoscale": {"trace": "diurnal", "model": "Llama 2 7B", "mesh": "4x4", "rate": "0.1",
		"policy": "target-util", "seed": "42", "requests": "0"},
	"faults": {"trace": "bursty", "model": "Llama 2 7B", "meshes": "2x2", "replicas": "2",
		"rate": "0.15", "seed": "7"},
	"overload": {"trace": "flashcrowd", "model": "Llama 2 7B", "mesh": "4x4", "rate": "0.5",
		"requests": "600", "seed": "7"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the mode they select with its report on stdout,
// and returns the exit status: 0 on success and for -h, 1 when the run
// fails, and 2 for a usage error. Usage and errors go to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	o, fs := newOptions(stderr)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fs.Visit(func(f *flag.Flag) { o.set[f.Name] = true })
	if err := o.validate(); err != nil {
		fmt.Fprintln(stderr, "mugisim:", err)
		fmt.Fprintln(stderr, "run 'mugisim -h' for the flag reference")
		return 2
	}
	mode, _ := o.mode()
	for name, value := range modeDefaults[mode] {
		if o.set[name] {
			continue
		}
		if err := fs.Set(name, value); err != nil {
			panic(fmt.Sprintf("mugisim: -%s default %q: %v", name, value, err))
		}
	}
	runner.SetParallelism(o.parallel)
	if err := modes[mode](stdout, o); err != nil {
		fmt.Fprintln(stderr, "mugisim:", err)
		return 1
	}
	return 0
}

// mode returns the name of a mode flag that is set ("" when none is) and
// how many are set.
func (o *options) mode() (name string, n int) {
	for _, m := range []struct {
		name string
		on   bool
	}{
		{"all", o.all}, {"serve", o.serve}, {"capacity", o.capacity}, {"fleet", o.fleet},
		{"autoscale", o.autoscale}, {"faults", o.faults}, {"overload", o.overload},
	} {
		if m.on {
			name, n = m.name, n+1
		}
	}
	return name, n
}

// validate rejects contradictory flag combinations up front, before any
// mode starts simulating: one mode flag at a time, a non-empty
// single-pass shape, a replica floor below the ceiling, a positive
// request count (0 only under -autoscale, which sizes its trace), rates,
// probabilities, SLO bounds, the TCO utilization and the KV budget inside
// their domains, -surge spelled out only with the mode it shapes, a
// brownout ladder with rungs (and no more than the built-in ladder has),
// and a breaker threshold inside its (0,1] domain.
func (o *options) validate() error {
	if _, n := o.mode(); n > 1 {
		return fmt.Errorf("choose one mode flag: -all, -serve, -capacity, -fleet, -autoscale, -faults, or -overload")
	}
	if o.batch < 1 {
		return fmt.Errorf("-batch %d must be at least 1", o.batch)
	}
	if o.seq < 1 {
		return fmt.Errorf("-seq %d must be at least 1", o.seq)
	}
	if o.maxReplicas > 0 && o.minReplicas > o.maxReplicas {
		return fmt.Errorf("-min-replicas %d exceeds -max-replicas %d", o.minReplicas, o.maxReplicas)
	}
	if o.minReplicas < 0 {
		return fmt.Errorf("-min-replicas %d must be non-negative", o.minReplicas)
	}
	if !(o.rate > 0) || math.IsInf(o.rate, 1) {
		return fmt.Errorf("-rate %g must be positive and finite", o.rate)
	}
	if o.requests < 0 {
		return fmt.Errorf("-requests %d must be non-negative", o.requests)
	}
	if o.requests == 0 && !o.autoscale {
		return fmt.Errorf("-requests 0 sizes a trace from the rate only under -autoscale; give at least 1")
	}
	if o.parallel < 0 {
		return fmt.Errorf("-parallel %d must be non-negative", o.parallel)
	}
	if !(o.mtbf >= 0) || math.IsInf(o.mtbf, 1) {
		return fmt.Errorf("-mtbf %g must be finite and non-negative", o.mtbf)
	}
	if !(o.mttr >= 0) || math.IsInf(o.mttr, 1) {
		return fmt.Errorf("-mttr %g must be finite and non-negative", o.mttr)
	}
	if !(o.straggler >= 0 && o.straggler <= 1) {
		return fmt.Errorf("-straggler %g must be a probability in [0,1]", o.straggler)
	}
	if !(o.nines > 0 && o.nines <= 1) {
		return fmt.Errorf("-nines %g must be an availability in (0,1]", o.nines)
	}
	if !(o.sloTTFT >= 0) || math.IsInf(o.sloTTFT, 1) {
		return fmt.Errorf("-slo-ttft %g must be finite and non-negative (0 = unbounded)", o.sloTTFT)
	}
	if !(o.sloLatency >= 0) || math.IsInf(o.sloLatency, 1) {
		return fmt.Errorf("-slo-latency %g must be finite and non-negative (0 = unbounded)", o.sloLatency)
	}
	if !(o.utilization >= 0 && o.utilization <= 1) {
		return fmt.Errorf("-utilization %g must be in (0,1], or 0 for the default", o.utilization)
	}
	// The budget becomes int64(kvBudgetGiB * 2^30) bytes.
	if !(o.kvBudgetGiB >= 0 && o.kvBudgetGiB < math.MaxInt64/(1<<30)) {
		return fmt.Errorf("-kvbudget %g GiB must be non-negative and under 8 EiB (0 = default)", o.kvBudgetGiB)
	}
	if o.set["surge"] && !o.overload {
		return fmt.Errorf("-surge only shapes the -overload flash crowd; add -overload")
	}
	if o.overload && o.surge <= 1 {
		return fmt.Errorf("-surge %g must exceed 1 (it multiplies the baseline rate)", o.surge)
	}
	if o.brownoutLadder < 1 || o.brownoutLadder > 3 {
		return fmt.Errorf("-brownout %d must be a ladder depth in 1..3", o.brownoutLadder)
	}
	if !(o.breaker >= 0 && o.breaker <= 1) {
		return fmt.Errorf("-breaker %g must be a downtime fraction in (0,1], or 0 to disable", o.breaker)
	}
	return nil
}

// replica resolves what every replica of a serving mode shares: -model,
// the -maxbatch cap and the -kvbudget in bytes. The grid modes' cells
// fill in design and mesh.
func (o *options) replica() (mugi.ServeConfig, error) {
	m, err := model.ByName(o.model)
	if err != nil {
		return mugi.ServeConfig{}, err
	}
	return mugi.ServeConfig{Model: m, MaxBatch: o.maxBatch, KVBudgetBytes: int64(o.kvBudgetGiB * (1 << 30))}, nil
}

// point is replica on one design and mesh: -design at -rows, -model and
// -mesh, resolved in that order.
func (o *options) point() (mugi.ServeConfig, error) {
	d, err := arch.ByName(o.design, o.rows)
	if err != nil {
		return mugi.ServeConfig{}, err
	}
	rep, err := o.replica()
	if err != nil {
		return rep, err
	}
	rep.Design = d
	rep.Mesh, err = noc.ParseMesh(o.mesh)
	return rep, err
}

// trace resolves -trace and -lengths into the trace of -rate, -requests
// and -seed. The capacity and fleet searches set their own rate per probe.
func (o *options) trace() (mugi.TraceConfig, error) {
	kind, err := mugi.ParseTraceKind(o.traceKind)
	if err != nil {
		return mugi.TraceConfig{}, err
	}
	profile, err := mugi.ParseLengthProfile(o.lengths)
	if err != nil {
		return mugi.TraceConfig{}, err
	}
	return mugi.TraceConfig{Kind: kind, Rate: o.rate, Requests: o.requests, Seed: o.seed, Lengths: profile}, nil
}

// grid resolves -designs, each at -rows, then -meshes into every
// design × mesh × replica-count cell.
func (o *options) grid(replicas []int) ([]mugi.FleetCell, error) {
	var designs []mugi.Design
	for _, s := range strings.Split(o.designs, ",") {
		d, err := arch.ByName(strings.TrimSpace(s), o.rows)
		if err != nil {
			return nil, err
		}
		designs = append(designs, d)
	}
	var meshes []mugi.Mesh
	for _, s := range strings.Split(o.meshes, ",") {
		mesh, err := noc.ParseMesh(strings.TrimSpace(s))
		if err != nil {
			return nil, err
		}
		meshes = append(meshes, mesh)
	}
	return mugi.FleetGrid(designs, meshes, replicas), nil
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

// runPoint simulates one pass of -model on -design and -mesh and prints
// the Table-3 style metrics and the latency breakdown.
func runPoint(w io.Writer, o *options) error {
	rep, err := o.point()
	if err != nil {
		return err
	}
	d, m := rep.Design, rep.Model
	var wl model.Workload
	if o.prefill {
		wl = m.PrefillOps(o.batch, o.seq)
	} else {
		wl = m.DecodeOps(o.batch, o.seq)
	}
	res := sim.Simulate(sim.Params{Design: d, Mesh: rep.Mesh}, wl)
	tokens := wl.TokensPerPass()

	fmt.Fprintf(w, "design        %s  mesh %s\n", d.Name, rep.Mesh)
	fmt.Fprintf(w, "workload      %s batch %d seq %d (decode=%v)\n", m.Name, o.batch, o.seq, wl.Decode)
	fmt.Fprintf(w, "throughput    %.3f tokens/s\n", res.TokensPerSecond)
	fmt.Fprintf(w, "latency       %.4f s (compute %.4f, memory %.4f)\n", res.Seconds, res.ComputeSeconds, res.MemorySeconds)
	fmt.Fprintf(w, "utilization   %.1f%%\n", res.Utilization*100)
	fmt.Fprintf(w, "energy        %.4f J/pass  (%.2f mJ/token)\n", res.DynamicEnergy, res.EnergyPerToken(tokens)*1e3)
	fmt.Fprintf(w, "power         %.3f W (leakage %.3f W)\n", res.PowerWatts, res.LeakageWatts)
	fmt.Fprintf(w, "efficiency    %.2f tokens/J  %.3f tokens/s/W\n", res.TokensPerJoule(tokens), res.TokensPerSecondPerWatt())
	fmt.Fprintf(w, "DRAM traffic  %.2f GB/pass\n", float64(res.DRAMBytes)/1e9)
	area := d.Area(&arch.Cost45nm)
	fmt.Fprintf(w, "area          %.2f mm2 (array %.2f, SRAM %.2f)\n", area.Total(), area.ArrayTotal(), area.SRAM)
	fmt.Fprintln(w, "latency breakdown (array cycles):")
	for _, cls := range []model.OpClass{model.Projection, model.Attention, model.FFN, model.Nonlinear} {
		fmt.Fprintf(w, "  %-10v %14.0f (%.1f%%)\n", cls, res.CyclesByClass[cls],
			res.CyclesByClass[cls]/res.TotalCycles*100)
	}
	return nil
}

// runServe drives one request-level serving scenario and writes the
// report to w. The trace is drawn lazily as the scheduler pulls it, so
// memory stays independent of the request count.
func runServe(w io.Writer, o *options) error {
	rep, err := o.point()
	if err != nil {
		return err
	}
	tr, err := o.trace()
	if err != nil {
		return err
	}
	src, err := mugi.NewTraceStream(tr)
	if err != nil {
		return err
	}
	report, err := mugi.ServeStream(rep, src)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, report.String())
	return err
}

// runCapacity binary-searches the max sustained request rate of one
// replica of every (design, mesh) cell of the grid, as one-replica fleet
// plan cells sharded across the runner pool, and prints the sizing
// table. Cells are searched with the default bracketing
// (fleet.DefaultMinRate..DefaultMaxRate) and goodput, and no SLO.
func runCapacity(w io.Writer, o *options) error {
	base, err := o.replica()
	if err != nil {
		return err
	}
	tr, err := o.trace()
	if err != nil {
		return err
	}
	cells, err := o.grid([]int{1})
	if err != nil {
		return err
	}
	results := mugi.PlanFleet(mugi.FleetPlanSpec{
		Base:  base,
		Cells: cells,
		Trace: tr,
		// Six bisections, one more than the planner's default, for a
		// finer sizing table.
		Iters: 6,
	})
	fmt.Fprintf(w, "capacity search: %s, %s %s traffic, %d requests/probe, seed %d\n",
		base.Model.Name, o.traceKind, tr.Lengths.Name, o.requests, o.seed)
	fmt.Fprintf(w, "%-12s %6s %10s %7s %10s %9s %9s\n",
		"design", "mesh", "capacity", "probes", "tok/s out", "TTFT p99", "p99 lat")
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(w, "%-12s %6s ERROR %v\n", res.Design, res.Mesh, res.Err)
			continue
		}
		if res.Capacity == 0 {
			fmt.Fprintf(w, "%-12s %6s  unsustainable at floor rate\n", res.Design, res.Mesh)
			continue
		}
		at := res.At.Fleet
		fmt.Fprintf(w, "%-12s %6s %10.4f %7d %10.2f %8.1fs %8.1fs\n",
			res.Design, res.Mesh, res.Capacity, res.Probes,
			at.TokensPerSecond, at.TTFT.P99, at.Latency.P99)
	}
	return nil
}

// runFleet plans the design × mesh × replicas grid against the SLO and
// prints the priced cells plus the dominated-cell-pruned perf/$ and
// perf/W frontiers.
func runFleet(w io.Writer, o *options) error {
	base, err := o.replica()
	if err != nil {
		return err
	}
	tr, err := o.trace()
	if err != nil {
		return err
	}
	policy, err := mugi.ParseFleetPolicy(o.policy)
	if err != nil {
		return err
	}
	replicas, err := parseCounts(o.replicas, 1)
	if err != nil {
		return err
	}
	cells, err := o.grid(replicas)
	if err != nil {
		return err
	}
	results := mugi.PlanFleet(mugi.FleetPlanSpec{
		Base:   base,
		Cells:  cells,
		Policy: policy,
		Trace:  tr,
		SLO:    mugi.FleetSLO{TTFTP99: o.sloTTFT, LatencyP99: o.sloLatency},
		Book:   mugi.PriceBook{Utilization: o.utilization},
	})
	fmt.Fprintf(w, "fleet plan: %s, %s %s probes (%d requests, seed %d), %s routing\n",
		base.Model.Name, o.traceKind, tr.Lengths.Name, o.requests, o.seed, policy)
	fmt.Fprintf(w, "SLO: TTFT p99 <= %gs, latency p99 <= %gs\n", o.sloTTFT, o.sloLatency)
	fmt.Fprintf(w, "%-12s %5s %4s %9s %9s %9s %10s %9s\n",
		"design", "mesh", "reps", "capacity", "$/hour", "$/1k req", "$/Mtok", "watts")
	for _, res := range results {
		if res.Err != nil {
			fmt.Fprintf(w, "%-12s %5s %4d ERROR %v\n", res.Design, res.Mesh, res.Replicas, res.Err)
			continue
		}
		if res.Capacity == 0 {
			fmt.Fprintf(w, "%-12s %5s %4d  cannot hold the SLO at the floor rate\n", res.Design, res.Mesh, res.Replicas)
			continue
		}
		fmt.Fprintf(w, "%-12s %5s %4d %9.4f %9.4f %9.4f %10.4f %9.2f\n",
			res.Design, res.Mesh, res.Replicas, res.Capacity,
			res.TCO.DollarsPerHour, res.TCO.DollarsPer1k, res.TCO.DollarsPerMTok, res.TCO.AvgWatts)
	}
	for _, axis := range []mugi.FleetFrontierAxis{mugi.FrontierByDollar, mugi.FrontierByWatt} {
		front := mugi.FleetFrontier(results, axis)
		fmt.Fprintf(w, "-- %s frontier (%d of %d cells) --\n", axis, len(front), len(results))
		for _, f := range front {
			fmt.Fprintf(w, "%-12s %5s x%d  %.4f req/s  $%.4f/h  %.2f W\n",
				f.Design, f.Mesh, f.Replicas, f.Capacity, f.TCO.DollarsPerHour, f.TCO.AvgWatts)
		}
	}
	return nil
}

// runAutoscale compares the static fleet plan against the online
// autoscaler on one long diurnal trace: first size the owned fleet the
// way the fleet planner would buy it (the cheapest replica count whose
// SLO-compliant capacity covers the peak rate), then run the same
// stream through the always-on baseline and the dynamic controller and
// report both in $/day and SLO-violation minutes.
func runAutoscale(w io.Writer, o *options) error {
	replica, err := o.point()
	if err != nil {
		return err
	}
	tr, err := o.trace()
	if err != nil {
		return err
	}
	policy, err := mugi.ParseAutoscalePolicy(o.policy)
	if err != nil {
		return err
	}
	horizon := 86400.0
	if o.week {
		horizon *= 7
	}
	if tr.Requests == 0 {
		// Over whole diurnal periods the mean rate is the nominal rate,
		// so this request count spans the horizon.
		tr.Requests = int(tr.Rate * horizon)
	}
	tr.Period = 86400
	// Peak arrival rate the static plan must cover: the top of the
	// diurnal swing (TraceConfig's default swing is 0.8), or the nominal
	// rate for flat arrival processes.
	peak := tr.Rate
	if tr.Kind == mugi.TraceDiurnal {
		peak = tr.Rate * 1.8
	}
	maxReplicas := o.maxReplicas
	if maxReplicas == 0 {
		results := mugi.PlanFleet(mugi.FleetPlanSpec{
			Base:   replica,
			Cells:  mugi.FleetGrid([]mugi.Design{replica.Design}, []mugi.Mesh{replica.Mesh}, []int{1, 2, 4, 8}),
			Policy: mugi.FleetJSQ,
			Trace:  mugi.TraceConfig{Kind: mugi.TracePoisson, Requests: 24, Seed: tr.Seed, Lengths: tr.Lengths},
			SLO:    mugi.FleetSLO{TTFTP99: o.sloTTFT, LatencyP99: o.sloLatency},
		})
		for _, res := range results {
			if res.Err == nil && res.Capacity >= peak {
				maxReplicas = res.Replicas
				fmt.Fprintf(w, "static plan: %d x %s %s covers the %.3f req/s peak (cell capacity %.4f req/s)\n",
					res.Replicas, res.Design, res.Mesh, peak, res.Capacity)
				break
			}
		}
		if maxReplicas == 0 {
			return fmt.Errorf("no planned cell covers the %.3f req/s peak; raise -max-replicas or shrink -rate", peak)
		}
	}
	cmp, err := mugi.CompareAutoscale(mugi.AutoscaleConfig{
		Replica:     replica,
		MinReplicas: o.minReplicas,
		MaxReplicas: maxReplicas,
		Policy:      policy,
		SLO:         mugi.AutoscaleSLO{TTFT: o.sloTTFT, Latency: o.sloLatency},
	}, tr)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, cmp.String())
	return err
}

// runFaults sweeps the design × mesh × replicas grid crossed with the
// N+k spares axis under seeded fault injection and prints the
// availability table, the price-of-nines frontier, and the cheapest
// configuration meeting the -nines availability target.
func runFaults(w io.Writer, o *options) error {
	base, err := o.replica()
	if err != nil {
		return err
	}
	tr, err := o.trace()
	if err != nil {
		return err
	}
	policy, err := mugi.ParseFleetPolicy(o.policy)
	if err != nil {
		return err
	}
	replicas, err := parseCounts(o.replicas, 1)
	if err != nil {
		return err
	}
	spares, err := parseCounts(o.spares, 0)
	if err != nil {
		return err
	}
	cells, err := o.grid(replicas)
	if err != nil {
		return err
	}
	results := mugi.PlanNines(mugi.NinesSpec{
		Base:   base,
		Cells:  cells,
		Spares: spares,
		Policy: policy,
		Trace:  tr,
		Faults: mugi.FaultSpec{MTBF: o.mtbf, MTTR: o.mttr, StragglerProb: o.straggler, Seed: o.seed},
	})
	fmt.Fprintf(w, "price of nines: %s, %s %s probes (%d requests at %.3f req/s, seed %d), %s routing\n",
		base.Model.Name, o.traceKind, tr.Lengths.Name, o.requests, o.rate, o.seed, policy)
	fmt.Fprintf(w, "faults: MTBF %gs  MTTR %gs  straggler prob %g\n", o.mtbf, o.mttr, o.straggler)
	for _, res := range results {
		fmt.Fprintln(w, res)
	}
	front := mugi.NinesFrontier(results)
	fmt.Fprintf(w, "-- price-of-nines frontier (%d of %d points) --\n", len(front), len(results))
	for _, f := range front {
		fmt.Fprintln(w, f)
	}
	if best, ok := mugi.CheapestNines(results, o.nines); ok {
		fmt.Fprintf(w, "cheapest at >= %g availability: %s %s N=%d+%d  $%.4f/1k  availability %.4f%% (%s)\n",
			o.nines, best.Design, best.Mesh, best.Replicas, best.Spares,
			best.DollarsPer1k, best.Availability*100, mugi.NinesString(best.Availability))
	} else {
		fmt.Fprintf(w, "no planned point reaches availability %g — add spares or relax -nines\n", o.nines)
	}
	return nil
}

// runOverload fields a surging tenanted trace against a two-replica
// fleet armed with admission control, strict-priority dispatch and a
// brownout ladder, then prices the isolation premium against the same
// silicon run as a shared best-effort fleet. With -breaker above zero
// the fleet also injects -mtbf/-mttr faults and arms per-replica
// circuit breakers over them.
func runOverload(w io.Writer, o *options) error {
	replica, err := o.point()
	if err != nil {
		return err
	}
	tr, err := o.trace()
	if err != nil {
		return err
	}
	if tr.Tenants, err = mugi.ParseTenants(o.tenants); err != nil {
		return err
	}
	tr.SurgeFactor, tr.SurgeSpan, tr.SurgePeriod = o.surge, 120, 600
	if replica.MaxBatch == 0 {
		// Uncapped, overload pools inside the KV-limited decode batch and
		// the queue — the admission controller's whole domain — stays empty.
		replica.MaxBatch = 8
	}
	replica.MaxQueue = 12
	replica.Admission = &mugi.AdmissionSpec{}
	replica.Brownout = &mugi.BrownoutSpec{
		Steps: mugi.DefaultBrownoutSteps()[:o.brownoutLadder], HighWater: 8, Dwell: 10,
	}
	fleetCfg := mugi.FleetConfig{Replica: replica, Replicas: 2, Policy: mugi.FleetJSQ}
	if o.breaker > 0 {
		fleetCfg.Faults = mugi.FaultSpec{MTBF: o.mtbf, MTTR: o.mttr, Seed: o.seed}
		fleetCfg.MaxRedispatch = 2
		fleetCfg.Breaker = &mugi.BreakerSpec{Window: 300, Threshold: o.breaker, Cooldown: 60, Probes: 1}
	}
	spec := mugi.PrioritySpec{Fleet: fleetCfg, Trace: tr}
	spec.SLOs[mugi.TenantInteractive] = mugi.ClassSLO{TTFTP99: 15, LatencyP99: 60}
	spec.SLOs[mugi.TenantStandard] = mugi.ClassSLO{TTFTP99: 60, LatencyP99: 120}
	spec.SLOs[mugi.TenantBestEffort] = mugi.ClassSLO{LatencyP99: 900}
	res, err := mugi.PlanPriority(spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "graceful degradation: %s, %s %s x2, %s traffic %.2f req/s with %gx surges, seed %d\n",
		replica.Model.Name, replica.Design.Name, replica.Mesh, o.traceKind, o.rate, o.surge, o.seed)
	fmt.Fprint(w, res.String())
	tf := res.Tenanted.Fleet
	fmt.Fprintf(w, "degradation under the surge: %d evicted  %d degraded  %d shed  brownout max level %d (%.0f s)\n",
		tf.Evicted, tf.Degraded, tf.Shed, tf.BrownoutMaxLevel, tf.BrownoutSeconds)
	if o.breaker > 0 {
		trips := 0
		for _, n := range res.Tenanted.BreakerTrips {
			trips += n
		}
		fmt.Fprintf(w, "circuit breakers (MTBF %gs, MTTR %gs, threshold %.0f%%): %d trips %v  availability %.4f\n",
			o.mtbf, o.mttr, o.breaker*100, trips, res.Tenanted.BreakerTrips, tf.Availability)
	}
	sf := res.Shared.Fleet
	slo := spec.SLOs[mugi.TenantInteractive]
	verdict := "MISSED"
	if slo.Met(sf.TTFT.P99, sf.Latency.P99) {
		verdict = "met"
	}
	fmt.Fprintf(w, "shared fleet tail everyone shares: ttft p99 %.2f s  latency p99 %.2f s  (interactive slo %gs: %s)\n",
		sf.TTFT.P99, sf.Latency.P99, slo.TTFTP99, verdict)
	return nil
}

// runAll regenerates the full registry on the worker pool and prints
// each artifact in paper order.
func runAll(w io.Writer, _ *options) error {
	for _, res := range mugi.RunAll() {
		fmt.Fprintln(w, res.Text)
	}
	return nil
}
