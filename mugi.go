// Package mugi is the public API of the Mugi reproduction: value level
// parallelism (VLP) for efficient transformer inference, after "Mugi:
// Value Level Parallelism For Efficient LLMs" (ASPLOS 2026).
//
// The package is a facade over the implementation packages:
//
//   - VLP nonlinear approximation (sliding-window LUT with temporal
//     subscription) and the baseline approximators (PWL, Taylor, PA,
//     precise vector array);
//   - VLP asymmetric BF16-INT4 GEMM with the Mugi transposed mapping,
//     WOQ/KVQ quantization, and GQA-aware packing;
//   - the architecture simulator: hardware designs (Mugi, Carat,
//     systolic/SIMD arrays, FIGNA variants, tensor cores), a 2D-mesh NoC,
//     a 45 nm cost model, and the ACT-style carbon model;
//   - the workload model (Llama-2, Whisper, SwinV2, ViViT) and the
//     experiment harness regenerating every table and figure of the
//     paper's evaluation;
//   - the request-level serving simulator (traces, continuous batching,
//     capacity search) and the fleet-level price-performance planner
//     (multi-replica routing, TCO, Pareto frontiers).
//
// See examples/quickstart for a guided tour and DESIGN.md for the system
// inventory.
package mugi

import (
	"mugi/internal/arch"
	"mugi/internal/autoscale"
	"mugi/internal/carbon"
	"mugi/internal/core"
	"mugi/internal/experiments"
	"mugi/internal/faults"
	"mugi/internal/fleet"
	"mugi/internal/infer"
	"mugi/internal/minuteserve"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/nonlinear"
	"mugi/internal/overload"
	"mugi/internal/runner"
	"mugi/internal/serve"
	"mugi/internal/sim"
	"mugi/internal/tensor"
)

// ---- VLP nonlinear approximation ----

// Op identifies a nonlinear operation (Exp, SiLU, GELU, Tanh).
type Op = nonlinear.Op

// Exported nonlinear operations.
const (
	Exp  = nonlinear.Exp
	SiLU = nonlinear.SiLU
	GELU = nonlinear.GELU
	Tanh = nonlinear.Tanh
)

// Approximator is the common interface of all nonlinear hardware
// implementations (VLP, PWL, Taylor, PA, precise).
type Approximator = nonlinear.Approximator

// ApproxConfig parameterizes a VLP approximator: operation, rounded
// mantissa width, stored exponent window, and sliding-window width.
type ApproxConfig = core.Config

// Approx is the VLP sliding-window LUT approximator.
type Approx = core.Approx

// NewApprox builds a VLP approximator.
func NewApprox(cfg ApproxConfig) *Approx { return core.New(cfg) }

// LUTSizeConfig builds the Fig.-6 sweep point: a LUT storing lutSize
// exponents topped at eMax.
func LUTSizeConfig(op Op, lutSize, eMax int) ApproxConfig {
	return core.LUTSizeConfig(op, lutSize, eMax)
}

// Exact evaluates the reference nonlinear function.
func Exact(op Op, x float64) float64 { return nonlinear.Exact(op, x) }

// SoftmaxExact computes the numerically stable exact softmax.
func SoftmaxExact(dst, x []float64) []float64 { return nonlinear.SoftmaxExact(dst, x) }

// NewPWL, NewTaylor and NewPA build the baseline approximators.
func NewPWL(op Op, lo, hi float64, segments int) Approximator {
	return nonlinear.NewPWL(op, lo, hi, segments)
}

// NewTaylor builds a Horner-evaluated Taylor approximator around center.
func NewTaylor(op Op, center float64, degree int) Approximator {
	return nonlinear.NewTaylor(op, center, degree)
}

// NewPA builds the partial (hard-sigmoid) approximator.
func NewPA(op Op) Approximator { return nonlinear.NewPA(op) }

// ---- VLP GEMM ----

// Matrix is a dense row-major float32 matrix.
type Matrix = tensor.Matrix

// NewMatrix allocates a zeroed matrix.
func NewMatrix(rows, cols int) *Matrix { return tensor.NewMatrix(rows, cols) }

// QuantMatrix is an INT-quantized weight/KV matrix with per-column group
// scales (WOQ/KVQ layout).
type QuantMatrix = core.QuantMatrix

// QuantizeWeights quantizes a K×N weight matrix to `bits` with symmetric
// per-column groups of groupSize along K.
func QuantizeWeights(w *Matrix, bits, groupSize int) QuantMatrix {
	return core.QuantizeWeights(w, bits, groupSize)
}

// GEMMConfig describes the VLP array and operand mapping.
type GEMMConfig = core.GEMMConfig

// Mapping orientations.
const (
	// MappingMugi is the transposed mapping (INT4 on rows, BF16 on
	// columns).
	MappingMugi = core.MappingMugi
	// MappingCaratBF16 is the ablation mapping with 128-cycle windows.
	MappingCaratBF16 = core.MappingCaratBF16
)

// GEMMStats reports VLP GEMM timing and utilization.
type GEMMStats = core.GEMMStats

// Multiply computes activations × quantized weights on the VLP array,
// returning the product and the cycle statistics.
func Multiply(cfg GEMMConfig, a *Matrix, wq QuantMatrix) (*Matrix, GEMMStats) {
	return core.Multiply(cfg, a, wq)
}

// GEMMScratch holds the reusable accumulators of MultiplyInto; a warmed
// scratch makes repeated GEMMs allocation-free.
type GEMMScratch = core.GEMMScratch

// MultiplyInto is the scratch-reusing form of Multiply: it writes the
// product into out (A.Rows × Wq.Cols) and returns the cycle statistics.
// Results are bit-identical to Multiply.
func MultiplyInto(cfg GEMMConfig, a *Matrix, wq QuantMatrix, out *Matrix, s *GEMMScratch) GEMMStats {
	return core.MultiplyInto(cfg, a, wq, out, s)
}

// ---- Hardware designs and simulation ----

// Design is one hardware configuration.
type Design = arch.Design

// Design constructors (paper Table 2).
var (
	// NewMugi builds the Mugi VLP design at the given array height.
	NewMugi = arch.Mugi
	// NewMugiL builds the LUT-based nonlinear variant; it panics below
	// 8 rows, where the LUT bank would be empty.
	NewMugiL = arch.MugiL
	// NewCarat builds the modified prior VLP design; it panics below 3
	// rows, where its Taylor unit would have no lane.
	NewCarat = arch.Carat
	// NewSystolicArray builds a dim×dim systolic array (figna selects the
	// FIGNA FP-INT PE).
	NewSystolicArray = arch.SystolicArray
	// NewSIMDArray builds a dim×dim SIMD array.
	NewSIMDArray = arch.SIMDArray
	// NewTensorCore builds the Hopper-style 8×16×16 tensor core.
	NewTensorCore = arch.TensorCore
)

// CostTable holds the technology constants; Cost45nm is the calibrated
// 45 nm / 400 MHz table.
type CostTable = arch.CostTable

// Cost45nm is the calibrated evaluation technology.
var Cost45nm = arch.Cost45nm

// Mesh is a 2D NoC mesh; SingleNode is the 1×1 degenerate mesh.
type Mesh = noc.Mesh

// SingleNode is the single-node (no NoC) configuration.
var SingleNode = noc.Single

// NewMesh builds a rows×cols mesh.
func NewMesh(rows, cols int) Mesh { return noc.NewMesh(rows, cols) }

// ModelConfig describes a transformer workload (paper Table 1).
type ModelConfig = model.Config

// Workload is an expanded operator list for one forward pass.
type Workload = model.Workload

// The studied models.
var (
	Llama2_7B      = model.Llama2_7B
	Llama2_13B     = model.Llama2_13B
	Llama2_70B     = model.Llama2_70B
	Llama2_70B_GQA = model.Llama2_70B_GQA
	WhisperTiny    = model.WhisperTiny
	WhisperLarge   = model.WhisperLarge
	SwinV2Tiny     = model.SwinV2Tiny
	SwinV2Large    = model.SwinV2Large
	ViViTBase      = model.ViViTBase
)

// Models lists every studied configuration.
func Models() []ModelConfig { return model.AllModels() }

// ModelByName finds a configuration by display name.
func ModelByName(name string) (ModelConfig, error) { return model.ByName(name) }

// SimParams bundles the simulator inputs.
type SimParams = sim.Params

// SimResult is one simulated pass.
type SimResult = sim.Result

// Simulate maps a workload onto a design (optionally a mesh) and returns
// throughput, latency breakdown, energy, power and traffic.
func Simulate(p SimParams, w Workload) SimResult { return sim.Simulate(p, w) }

// HBMBandwidth is the evaluated off-chip bandwidth (256 GB/s).
const HBMBandwidth = sim.HBMBandwidth

// ---- Request-level serving ----

// TraceKind selects a synthetic arrival process for the serving simulator.
type TraceKind = serve.TraceKind

// The arrival processes.
const (
	TracePoisson    = serve.Poisson
	TraceBursty     = serve.Bursty
	TraceDiurnal    = serve.Diurnal
	TraceFlashcrowd = serve.Flashcrowd
	TraceRetrystorm = serve.Retrystorm
)

// TraceConfig parameterizes a synthetic request trace (arrival process,
// mean rate, request count, seed, and length profile).
type TraceConfig = serve.TraceConfig

// RequestTrace is a finite, arrival-ordered schedule of serving requests.
type RequestTrace = serve.Trace

// LengthProfile draws per-request prompt/output token counts.
type LengthProfile = serve.LengthProfile

// ChatLengths and RAGLengths are the built-in request length profiles.
func ChatLengths() LengthProfile { return serve.ChatLengths() }

// RAGLengths models long-prompt retrieval-augmented traffic.
func RAGLengths() LengthProfile { return serve.RAGLengths() }

// TraceStream yields a finite request schedule lazily, in arrival order,
// so a million-request run never materializes the full trace.
type TraceStream = serve.Stream

// NewTrace draws a deterministic request trace: identical configs yield
// byte-identical traces.
func NewTrace(cfg TraceConfig) (RequestTrace, error) { return serve.NewTrace(cfg) }

// NewTraceStream returns the lazy seeded request generator behind
// NewTrace: the same requests, drawn one at a time in O(1) memory.
func NewTraceStream(cfg TraceConfig) (TraceStream, error) { return serve.NewStream(cfg) }

// ParseTraceKind maps "poisson"/"bursty"/"diurnal" to its TraceKind.
func ParseTraceKind(s string) (TraceKind, error) { return serve.ParseTraceKind(s) }

// ParseLengthProfile maps "chat"/"rag" to its built-in length profile.
func ParseLengthProfile(s string) (LengthProfile, error) { return serve.ParseLengthProfile(s) }

// ServeConfig bundles the serving-simulation inputs: served model,
// hardware design and mesh, batch cap, and KV-cache budget.
type ServeConfig = serve.Config

// ServeReport is one serving simulation: offered vs. sustained
// throughput, TTFT/TPOT/latency percentiles, scheduler occupancy, and
// energy per request.
type ServeReport = serve.Report

// Serve drives a request trace through the continuous-batching scheduler
// over the architecture simulator's step costs (priced once per step
// shape per run). Identical (config, trace) inputs produce a
// byte-identical report at any runner parallelism.
func Serve(cfg ServeConfig, tr RequestTrace) (ServeReport, error) { return serve.Run(cfg, tr) }

// ServeStream is Serve over a lazy request stream: the scheduler pulls
// requests as they arrive and aggregates latencies into fixed-size
// histograms, so memory stays O(backlog + buckets) even for
// million-request traces.
func ServeStream(cfg ServeConfig, src TraceStream) (ServeReport, error) {
	return serve.RunStream(cfg, src)
}

// ---- Fleet planning ----

// FleetPolicy selects how the fleet router assigns requests to replicas.
type FleetPolicy = fleet.Policy

// The routing policies.
const (
	// FleetRoundRobin spreads arrivals blindly in arrival order.
	FleetRoundRobin = fleet.RoundRobin
	// FleetJSQ joins the shortest estimated queue (virtual-clock backlog).
	FleetJSQ = fleet.JSQ
	// FleetAffinity pins sessions to replicas (prefix-cache routing).
	FleetAffinity = fleet.Affinity
)

// ParseFleetPolicy maps "round-robin"/"jsq"/"affinity" to its policy.
func ParseFleetPolicy(s string) (FleetPolicy, error) { return fleet.ParsePolicy(s) }

// FleetConfig bundles a fleet run: one replica's serving configuration,
// the replica count, and the routing policy.
type FleetConfig = fleet.Config

// FleetReport is one fleet run: the merged fleet-level serving report
// (percentiles over every replica's samples) plus per-replica detail.
type FleetReport = fleet.Report

// RunFleet routes a request stream across N identical replicas and merges
// the per-replica runs into one fleet report. Routing, replica execution
// (sharded via the runner pool), and merging are all deterministic, so
// the report is byte-identical at any parallelism.
func RunFleet(cfg FleetConfig, src TraceStream) (FleetReport, error) { return fleet.Run(cfg, src) }

// PriceBook parameterizes the fleet TCO model: $/mm² die capex,
// electricity tariff, carbon price, PUE, lifetime, and target
// utilization. The zero value selects calibrated defaults.
type PriceBook = fleet.PriceBook

// TCO is a priced fleet operating point: capex, burn rate, and the
// $/1k-requests / $/Mtoken headline splits (capex + energy + carbon).
type TCO = fleet.TCO

// PriceFleet computes the TCO of a (design, mesh, replicas) fleet at the
// operating point a fleet report measured.
func PriceFleet(book PriceBook, d Design, mesh Mesh, replicas int, rep ServeReport) (TCO, error) {
	return fleet.Price(book, d, mesh, replicas, rep)
}

// FleetSLO bounds the latency tail a planned fleet must hold (p99 TTFT
// and/or p99 request latency, seconds; zero disables a bound).
type FleetSLO = fleet.SLO

// FleetCell is one (design, mesh, replica-count) point of a fleet sweep.
type FleetCell = fleet.Cell

// FleetGrid builds the designs × meshes × replicas cross-product in
// deterministic sweep order.
func FleetGrid(designs []Design, meshes []Mesh, replicas []int) []FleetCell {
	return fleet.Grid(designs, meshes, replicas)
}

// FleetPlanSpec parameterizes PlanFleet: the sweep grid, probe traffic,
// SLO, routing policy, price book, and capacity-search shape.
type FleetPlanSpec = fleet.PlanSpec

// FleetCellResult is one planned cell: its SLO-compliant capacity, the
// fleet report at that capacity, and the priced TCO.
type FleetCellResult = fleet.CellResult

// PlanFleet binary-searches every cell's SLO-compliant capacity and
// prices it, sharding cells across the runner pool. It is the one
// capacity search: a one-replica cell searches a single serving
// configuration, and a zero FleetSLO leaves the pure goodput criterion.
// Results are byte-identical at any parallelism.
func PlanFleet(spec FleetPlanSpec) []FleetCellResult { return fleet.Plan(spec) }

// FleetFrontierAxis selects the cost axis of FleetFrontier ($/hour burn
// rate or average watts).
type FleetFrontierAxis = fleet.FrontierAxis

// The frontier axes.
const (
	// FrontierByDollar prunes on the $/hour burn rate (the perf/$ view).
	FrontierByDollar = fleet.ByDollar
	// FrontierByWatt prunes on average facility power (the perf/W view).
	FrontierByWatt = fleet.ByWatt
)

// FleetFrontier prunes dominated cells and returns the price-performance
// frontier sorted by ascending cost: the cheapest way to buy each next
// increment of SLO-compliant throughput.
func FleetFrontier(results []FleetCellResult, axis FleetFrontierAxis) []FleetCellResult {
	return fleet.Frontier(results, axis)
}

// ---- Fleet autoscaling ----

// DVFSPoint is a voltage–frequency operating point: clock scaled by
// FScale (step latency ∝ 1/f), rail scaled by VScale (dynamic energy ∝
// V²f). The zero value is nominal full speed.
type DVFSPoint = arch.DVFSPoint

// DVFSLadder is the default three-point ladder (full, p75, p50),
// fastest first, each slower point on the 45 nm V(f) = 0.6 + 0.4f line.
func DVFSLadder() []DVFSPoint { return arch.DVFSLadder() }

// DVFSStep builds a named operating point at the given frequency scale
// on the default voltage line.
func DVFSStep(name string, fscale float64) DVFSPoint { return arch.DVFSStep(name, fscale) }

// WindowSpec slices a serving timeline into fixed-width windows and
// judges per-request SLO bounds inside each — the accounting behind
// SLO-violation minutes.
type WindowSpec = serve.WindowSpec

// SLOWindows is the windowed accumulator itself (per-window arrivals,
// violations, maxima; losslessly mergeable).
type SLOWindows = serve.Windows

// AutoscaleSLO is the per-request objective the autoscaler's windows
// judge: TTFT and total-latency bounds in seconds.
type AutoscaleSLO = autoscale.SLO

// AutoscaleConfig bundles one controller run: the per-replica serving
// configuration, the owned fleet bounds, the decision tick, the boot
// lag, the DVFS ladder, the scaling policy, and the price book.
type AutoscaleConfig = autoscale.Config

// AutoscalePolicy decides the target replica count and operating point
// each tick (target-utilization hysteresis, queue-depth proportional,
// or the clairvoyant oracle).
type AutoscalePolicy = autoscale.Policy

// ParseAutoscalePolicy maps "target-util"/"queue"/"oracle" to its
// policy.
func ParseAutoscalePolicy(s string) (AutoscalePolicy, error) { return autoscale.ParsePolicy(s) }

// AutoscalePolicies lists every scaling policy in comparison order.
func AutoscalePolicies() []AutoscalePolicy { return autoscale.Policies() }

// AutoscaleReport is one controller run: latency percentiles, windowed
// SLO minutes, replica-seconds by power state, scale events, energy
// split, and the $/day price.
type AutoscaleReport = autoscale.Report

// Autoscale drives a trace through the online fleet controller —
// power-state machine, scale-up lag, drain-on-scale-down, DVFS — and
// returns the report. Deterministic at any runner parallelism.
func Autoscale(cfg AutoscaleConfig, tc TraceConfig) (AutoscaleReport, error) {
	return autoscale.Run(cfg, tc)
}

// AutoscaleComparison is the static-vs-dynamic verdict on one trace:
// the always-on baseline and the controller run, both priced per day.
type AutoscaleComparison = autoscale.Comparison

// CompareAutoscale runs the trace through the always-on static fleet
// and the dynamic controller and prices both sides ($/day and
// SLO-violation minutes).
func CompareAutoscale(cfg AutoscaleConfig, tc TraceConfig) (AutoscaleComparison, error) {
	return autoscale.Compare(cfg, tc)
}

// ---- Fault injection and the price of nines ----

// FaultSpec is the seeded deterministic failure model: fail-stop
// crashes from MTBF/MTTR, stragglers, boot failures, and transient
// request errors. A zero-rate spec injects nothing and reproduces the
// fault-free run byte for byte. Set it on FleetConfig.Faults,
// AutoscaleConfig.Faults, or NinesSpec.Faults.
type FaultSpec = faults.Spec

// NinesSpec parameterizes the price-of-nines sweep: fleet cells crossed
// with an N+k spare-capacity axis, each run against one fixed faulty
// probe trace and priced by the TCO model.
type NinesSpec = fleet.NinesSpec

// NinesResult is one (cell, spares) point of the price-of-nines sweep:
// the faulty fleet report, its availability and nines, and the
// $/1k-requests price that already contains them (capex charges the
// spares; throughput counts only completed requests).
type NinesResult = fleet.NinesResult

// PlanNines runs every (cell, spares) point of the spec against the
// faulty probe trace and prices it. Deterministic at any runner
// parallelism.
func PlanNines(spec NinesSpec) []NinesResult { return fleet.PlanNines(spec) }

// NinesFrontier prunes dominated points and returns the price-of-nines
// frontier sorted by ascending $/1k-requests: the cheapest way to buy
// each next increment of availability.
func NinesFrontier(results []NinesResult) []NinesResult { return fleet.NinesFrontier(results) }

// CheapestNines returns the cheapest planned point whose availability
// meets the target (e.g. 0.999 for three nines), or ok=false if none
// does.
func CheapestNines(results []NinesResult, target float64) (NinesResult, bool) {
	return fleet.CheapestAtLeast(results, target)
}

// AvailabilityNines converts an availability fraction into nines:
// -log10(1-a), so 0.999 → 3.0.
func AvailabilityNines(availability float64) float64 { return faults.Nines(availability) }

// NinesString renders an availability as a nines label ("3.0 nines").
func NinesString(availability float64) string { return faults.NinesString(availability) }

// FleetDayCost is a fleet's owning-and-running cost normalized to one
// day: amortized capex for every owned replica plus the energy and
// carbon actually drawn.
type FleetDayCost = fleet.DayCost

// PriceFleetDay prices a fleet of owned replicas that drew energyJ IT
// joules over horizonSeconds of wall clock, normalized to $/day.
func PriceFleetDay(book PriceBook, d Design, mesh Mesh, replicas int, energyJ, horizonSeconds float64) (FleetDayCost, error) {
	return fleet.PriceDay(book, d, mesh, replicas, energyJ, horizonSeconds)
}

// ---- Overload and the price of priority ----

// TenantClass is a request's service class: interactive, standard, or
// best-effort, in descending admission priority.
type TenantClass = overload.Class

// The tenant classes, and their count.
const (
	TenantInteractive = overload.Interactive
	TenantStandard    = overload.Standard
	TenantBestEffort  = overload.BestEffort
	NumTenantClasses  = overload.NumClasses
)

// ParseTenantClass maps "interactive"/"standard"/"best-effort" to its
// class.
func ParseTenantClass(s string) (TenantClass, error) { return overload.ParseClass(s) }

// TenantClasses lists every class in descending priority order.
func TenantClasses() []TenantClass { return overload.Classes() }

// TenantSpec is one class's share of a tenanted trace mix; set a slice
// of them on TraceConfig.Tenants to tag requests. Tagging draws from a
// decoupled RNG, so it never perturbs arrivals or lengths.
type TenantSpec = serve.TenantSpec

// ParseTenants parses a "class:share,class:share" mix string (shares
// normalized; e.g. "interactive:0.3,standard:0.4,best-effort:0.3").
func ParseTenants(s string) ([]TenantSpec, error) { return serve.ParseTenants(s) }

// TenantString renders a tenant mix back to its flag syntax.
func TenantString(tenants []TenantSpec) string { return serve.TenantString(tenants) }

// ClassSLO is a per-class latency target (p99 TTFT and p99 end-to-end
// seconds; zero bounds are unconstrained).
type ClassSLO = overload.SLO

// DefaultClassSLO returns the built-in latency target for a class.
func DefaultClassSLO(c TenantClass) ClassSLO { return overload.DefaultSLO(c) }

// ClassStats is one class's section of a serving or fleet report: fate
// counters (Completed+Shed+Orphaned==Requests), token totals, and
// latency percentiles.
type ClassStats = serve.ClassStats

// TokenBucket is one class's admission rate limit (sustained
// requests/second plus burst capacity).
type TokenBucket = overload.TokenBucket

// AdmissionSpec arms the deterministic admission controller on
// ServeConfig.Admission: per-class token buckets and strict-priority
// queue eviction (arriving interactive work may evict queued
// best-effort work, never the reverse). The zero value admits on
// priority alone with no rate limits.
type AdmissionSpec = overload.AdmissionSpec

// BrownoutStep is one rung of the brownout ladder: a best-effort output
// cap, a wider scheduler context bucket, and a DVFS downshift.
type BrownoutStep = overload.BrownoutStep

// BrownoutSpec arms graceful degradation on ServeConfig.Brownout: a
// queue-depth-triggered ladder of BrownoutSteps with dwell-time
// hysteresis.
type BrownoutSpec = overload.BrownoutSpec

// DefaultBrownoutSteps returns the built-in three-rung brownout ladder.
func DefaultBrownoutSteps() []BrownoutStep { return overload.DefaultBrownoutSteps() }

// ClientRetrySpec models retrying clients on ServeConfig.ClientRetry:
// shed requests re-arrive after Backoff seconds, up to MaxAttempts
// tries — the feedback loop behind retry-storm metastability.
type ClientRetrySpec = overload.ClientRetrySpec

// BreakerSpec arms a per-replica circuit breaker on
// FleetConfig.Breaker: a replica whose recent-window downtime fraction
// crosses Threshold is ejected from routing until a cooldown and a
// half-open probe readmit it. Requires injected faults — the fault
// schedule is the breaker's failure signal.
type BreakerSpec = overload.BreakerSpec

// PrioritySpec parameterizes the price-of-priority comparison: a
// tenanted fleet with its isolation machinery against the same silicon
// run as a shared best-effort fleet.
type PrioritySpec = fleet.PrioritySpec

// ClassPrice is one class's row of the price-of-priority sheet:
// measured tails, SLO verdict, and token-proportional $/1k-requests.
type ClassPrice = fleet.ClassPrice

// PriorityResult is the full price-of-priority comparison: both fleet
// reports, both TCOs, the per-class price sheet, and the isolation
// premium (interactive $/1k over shared $/1k).
type PriorityResult = fleet.PriorityResult

// PlanPriority runs the tenanted fleet and its shared-baseline twin
// over the same seeded probe and prices both. Deterministic at any
// runner parallelism.
func PlanPriority(spec PrioritySpec) (PriorityResult, error) { return fleet.PlanPriority(spec) }

// ---- MinuteServe benchmark ----

// MinuteServeEntry is one benchmark submission: what a competitor may
// choose (design, array size, mesh, replica count, traffic profile).
// Everything else — model, arrivals, seed, SLO, prices — is fixed by the
// rules.
type MinuteServeEntry = minuteserve.Entry

// MinuteServeReport is the signed single-entry artifact: the entry, its
// SLO-bound capacity, the full report of the scored minute, the TCO, and
// the two headline numbers, content-hash signed.
type MinuteServeReport = minuteserve.Report

// MinuteServeBoard is the signed leaderboard artifact: every entry's
// report in rank order, signed as a whole.
type MinuteServeBoard = minuteserve.Board

// MinuteServe scores one entry under the fixed rules: find its SLO-bound
// capacity, serve one simulated minute at that rate, price it, and sign
// the report. Deterministic at any runner parallelism.
func MinuteServe(e MinuteServeEntry) (MinuteServeReport, error) { return minuteserve.Run(e) }

// Leaderboard scores every entry (sharded across the runner pool) and
// ranks the sustainable ones by requests served per dollar. The board is
// byte-identical at any parallelism.
func Leaderboard(entries []MinuteServeEntry) (MinuteServeBoard, error) {
	return minuteserve.Leaderboard(entries)
}

// MinuteServeEntries lists the built-in leaderboard entries.
func MinuteServeEntries() []MinuteServeEntry { return minuteserve.Builtin() }

// ParseMinuteServeEntry parses the CLI entry syntax
// "kind[@rows]:RxC[:replicas][:profile]" (e.g. "mugi:4x4",
// "mugi@128:2x2:2:rag").
func ParseMinuteServeEntry(s string) (MinuteServeEntry, error) { return minuteserve.ParseEntry(s) }

// VerifyReport checks a serialized MinuteServe artifact (report or
// board) end to end: strict decode, canonical bytes, current rules,
// content digest, and headline re-derivation. It returns nil only for an
// artifact the benchmark signed under the current rules and nobody
// touched since.
func VerifyReport(data []byte) error { return minuteserve.Verify(data) }

// DiffReports compares two MinuteServe artifacts per axis: rules hash,
// entry membership, and each shared entry's capacity and headline
// numbers. Both inputs must be digest-valid; stale rules are reported,
// not rejected.
func DiffReports(a, b []byte) (string, error) { return minuteserve.Diff(a, b) }

// MinuteServeRules renders the benchmark's fixed rules sheet; its hash
// (MinuteServeRulesHash) signs every artifact.
func MinuteServeRules() string { return minuteserve.Rules() }

// MinuteServeRulesHash is the SHA-256 of the rules sheet; artifacts
// signed under different rules fail verification as stale.
func MinuteServeRulesHash() string { return minuteserve.RulesHash() }

// ---- Carbon ----

// Footprint is an operational + embodied carbon assessment (gCO2eq).
type Footprint = carbon.Footprint

// AssessCarbon computes the footprint of energyJ joules over `seconds` on
// a die of areaMM2, amortizing embodied carbon over a 3-year lifetime.
func AssessCarbon(energyJ, areaMM2, seconds float64) Footprint {
	return carbon.Assess(energyJ, areaMM2, seconds)
}

// ---- Experiments ----

// Experiment is a registered table/figure generator.
type Experiment = experiments.Entry

// Experiments lists the generators for every table and figure of the
// paper's evaluation.
func Experiments() []Experiment { return experiments.Registry() }

// RunExperiment regenerates one artifact by id ("fig11", "tab3", ...) and
// returns its plain-text rendering.
func RunExperiment(id string) (string, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return "", err
	}
	return e.Run().String(), nil
}

// ExperimentResult is one regenerated artifact: its registry identity plus
// the plain-text rendering.
type ExperimentResult struct {
	ID    string
	Title string
	Text  string
}

// runConfig collects RunOption settings.
type runConfig struct {
	parallelism    int
	setParallelism bool
}

// RunOption configures RunAll / RunExperiments.
type RunOption func(*runConfig)

// Parallelism bounds the experiment runner's worker pool at n (0 selects
// GOMAXPROCS). The bound covers both the fan-out across experiments and
// the simulation/sweep points inside each generator. Without this option
// the pool keeps its current size; with it the new size persists for
// subsequent runs. Resizing is not safe concurrently with another run.
func Parallelism(n int) RunOption {
	return func(c *runConfig) { c.parallelism, c.setParallelism = n, true }
}

// RunExperiments regenerates the named artifacts concurrently on the
// bounded worker pool and returns them in the order requested. Outputs are
// byte-identical to serial execution at every parallelism level: work is
// index-addressed and the simulators are pure, so only wall-clock changes.
// Unknown ids fail up front, before any experiment runs.
func RunExperiments(ids []string, opts ...RunOption) ([]ExperimentResult, error) {
	var cfg runConfig
	for _, o := range opts {
		o(&cfg)
	}
	entries := make([]experiments.Entry, len(ids))
	for i, id := range ids {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		entries[i] = e
	}
	if cfg.setParallelism {
		runner.SetParallelism(cfg.parallelism)
	}
	results := make([]ExperimentResult, len(entries))
	runner.Map(len(entries), func(i int) {
		results[i] = ExperimentResult{
			ID:    entries[i].ID,
			Title: entries[i].Title,
			Text:  entries[i].Run().String(),
		}
	})
	return results, nil
}

// RunAll regenerates every registered artifact in paper order.
func RunAll(opts ...RunOption) []ExperimentResult {
	ids := make([]string, 0, len(experiments.Registry()))
	for _, e := range experiments.Registry() {
		ids = append(ids, e.ID)
	}
	results, err := RunExperiments(ids, opts...)
	if err != nil {
		// Registry ids resolve by construction.
		panic(err)
	}
	return results
}

// ResetSimCache zeroes the runner's count of simulator passes. It stays
// only because benchmark/ calls it to count each unit's passes; no
// simulation result is cached.
func ResetSimCache() { runner.ResetCache() }

// ---- Functional decoding (integration layer) ----

// DecoderConfig sizes the functional decoder of internal/infer.
type DecoderConfig = infer.Config

// Decoder is a small autoregressive transformer running the complete Mugi
// operator stack (VLP GEMM, KVQ INT4 KV cache, GQA, VLP nonlinears, RoPE).
type Decoder = infer.Engine

// DecoderOps bundles the pluggable nonlinear implementations.
type DecoderOps = infer.Ops

// NewDecoder builds a seeded decoder instance.
func NewDecoder(cfg DecoderConfig) (*Decoder, error) { return infer.New(cfg) }

// ExactDecoderOps is the floating-point reference stack.
func ExactDecoderOps(act Op) DecoderOps { return infer.ExactOps(act) }

// VLPDecoderOps is the full Mugi stack.
func VLPDecoderOps(act Op) DecoderOps { return infer.VLPOps(act) }

// ---- MoE extension ----

// MoEConfig extends a dense model with mixture-of-experts FFNs (§7.2).
type MoEConfig = model.MoEConfig
