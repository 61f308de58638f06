// Package sim is the reproduction of the paper's in-house architecture
// simulator (§5.4): a cycle-level performance model plus an event-based
// cost model. It maps a model workload (internal/model) onto a hardware
// design (internal/arch), optionally scaled out over a mesh
// (internal/noc), and reports cycles, latency breakdowns, utilization,
// dynamic energy, power, DRAM traffic and the derived throughput /
// efficiency metrics of Table 3 and Figs. 11-17.
package sim

import (
	"fmt"

	"mugi/internal/arch"
	"mugi/internal/core"
	"mugi/internal/model"
	"mugi/internal/noc"
)

// HBMBandwidth is the off-chip memory bandwidth of all evaluated systems
// (paper Table 2): 256 GB/s.
const HBMBandwidth = 256e9

// Params bundles the simulation inputs.
type Params struct {
	Design arch.Design
	Mesh   noc.Mesh
	Cost   arch.CostTable
	// Bandwidth is the off-chip bandwidth in bytes/s (default
	// HBMBandwidth when zero).
	Bandwidth float64
	// NoCBandwidth is the aggregate NoC bandwidth in bytes/s available to
	// stream the pass's traffic across a multi-node mesh (default: the
	// mesh's provisioned bandwidth at the cost table's clock). Ignored on
	// a single node.
	NoCBandwidth float64
	// DVFS is the node's voltage–frequency operating point. Simulate
	// folds it into Cost (clock × f, per-op switching energy × v², leakage
	// × v — see arch.DVFSPoint) and clears the field, so downstream
	// consumers see only the re-derived cost table. The zero value is the
	// nominal point.
	DVFS arch.DVFSPoint
}

// applyDefaults materializes the zero-value defaults (HBM bandwidth,
// single node, 45 nm cost table) in place and folds the DVFS operating
// point into the cost table, so an implicit default and its explicit
// spelling price alike, and a DVFS-scaled Params prices like the
// equivalent hand-scaled cost table. Simulate defaults its own copy of
// the Params without copying it again.
// Note the off-chip Bandwidth is defaulted before the fold and the NoC's
// provisioned bandwidth after it: HBM is not on the DVFS rail, while the
// mesh links clock with the node.
func (p *Params) applyDefaults() {
	if p.Bandwidth == 0 {
		p.Bandwidth = HBMBandwidth
	}
	if p.Mesh.Nodes() == 0 {
		p.Mesh = noc.Single
	}
	if p.Cost.Frequency == 0 {
		p.Cost = arch.Cost45nm
	}
	if !p.DVFS.IsNominal() {
		p.Cost = p.Cost.AtDVFS(p.DVFS)
	}
	p.DVFS = arch.DVFSPoint{}
	if p.NoCBandwidth == 0 {
		p.NoCBandwidth = p.Mesh.ProvisionedBandwidth(p.Cost.Frequency)
	}
}

// Result is one simulated pass.
type Result struct {
	Design arch.Design
	Mesh   noc.Mesh

	// CyclesByClass is the array-cycle latency breakdown (Fig. 16),
	// indexed by model.OpClass.
	CyclesByClass [model.NumOpClasses]float64
	// TotalCycles is the end-to-end array latency of the pass.
	TotalCycles float64
	// ComputeSeconds and MemorySeconds are the two overlap terms; Seconds
	// is their max (double-buffered hierarchies hide the smaller).
	ComputeSeconds, MemorySeconds, Seconds float64

	// TokensPerSecond is the pass throughput.
	TokensPerSecond float64
	// EnergyByClass is dynamic energy per op class (Fig. 15's operational
	// split), in joules per pass, indexed by model.OpClass.
	EnergyByClass [model.NumOpClasses]float64
	// DRAMEnergy is the off-chip access energy per pass.
	DRAMEnergy float64
	// DynamicEnergy sums all per-pass dynamic energy.
	DynamicEnergy float64
	// LeakageWatts is the static power of node(s) + NoC.
	LeakageWatts float64
	// PowerWatts is average total power over the pass.
	PowerWatts float64
	// DRAMBytes is the off-chip traffic per pass.
	DRAMBytes int64
	// Utilization is useful MACs over array MAC capacity during GEMMs.
	Utilization float64

	// NoCRequiredBandwidth is the aggregate NoC bandwidth (bytes/s) the
	// pass needs so the network never stalls the arrays — the paper's §4.2
	// provisioning claim, now measured instead of assumed. Zero on a
	// single node.
	NoCRequiredBandwidth float64
	// NoCBandwidth is the configured aggregate NoC bandwidth the pass ran
	// against (zero on a single node).
	NoCBandwidth float64
	// NoCLimited reports that the configured NoC bandwidth could not
	// sustain the pass; Seconds was extended to the network-streaming time
	// as the fail-safe.
	NoCLimited bool
}

// TokensPerJoule is the energy-efficiency axis of Table 3 (dynamic
// energy).
func (r Result) TokensPerJoule(tokens int) float64 {
	if r.DynamicEnergy == 0 {
		return 0
	}
	return float64(tokens) / r.DynamicEnergy
}

// TokensPerSecondPerWatt is the power-efficiency axis of Table 3.
func (r Result) TokensPerSecondPerWatt() float64 {
	if r.PowerWatts == 0 {
		return 0
	}
	return r.TokensPerSecond / r.PowerWatts
}

// EnergyPerToken is dynamic energy per generated token (Fig. 14's
// energy/token axis).
func (r Result) EnergyPerToken(tokens int) float64 {
	if tokens == 0 {
		return 0
	}
	return r.DynamicEnergy / float64(tokens)
}

// gemmCycles returns array cycles and capacity (PE-equivalents) for one
// GEMM op repetition on the design, whose peak rate is peakMACs.
func gemmCycles(d *arch.Design, op *model.Op, peakMACs float64) (cycles, usefulMACs, capacityMACs float64) {
	m, k, n := op.M, op.K, op.N
	usefulMACs = float64(op.MACs())
	switch d.Kind {
	case arch.KindMugi, arch.KindMugiL, arch.KindCarat:
		// The modified Carat of §5.2.2 shares Mugi's transposed mapping;
		// its penalty is buffer area/energy, not cycles.
		st := core.PlanCycles(core.GEMMConfig{Rows: d.Rows, Cols: d.Cols, Mapping: core.MappingMugi},
			m, k, n, op.WeightBits)
		return float64(st.Cycles), usefulMACs, float64(st.Cycles) * peakMACs
	case arch.KindSA, arch.KindSD:
		// Output-stationary M×N tiling: each tile streams K reduction
		// steps; a tile computes min(M,Rows)×min(N,Cols) outputs.
		tilesM := ceilDiv(m, d.Rows)
		tilesN := ceilDiv(n, d.Cols)
		c := float64(tilesM) * float64(tilesN) * float64(k)
		return c, usefulMACs, c * peakMACs
	case arch.KindTensor:
		// Fully pipelined 8×16×16 block per cycle.
		blocks := float64(ceilDiv(m, d.Rows)) * float64(ceilDiv(n, d.Cols)) * float64(ceilDiv(k, d.Depth))
		return blocks, usefulMACs, blocks * peakMACs
	}
	panic(fmt.Sprintf("sim: unknown design kind %v", d.Kind))
}

// nlCycles returns the array/vector cycles for a nonlinear op on a design
// whose nonlinear unit retires nlPerCycle elements a cycle: the
// element-wise function plus, for softmax, the reciprocal multiply on the
// vector unit.
func nlCycles(d *arch.Design, op *model.Op, nlPerCycle float64) float64 {
	elems := float64(op.Elements)
	c := elems / nlPerCycle
	if op.Name == "softmax" {
		c += elems / float64(d.VectorLanes)
	}
	return c
}

// sramBytes estimates on-chip buffer traffic for one GEMM repetition:
// activations in BF16, weights at their quantized width, outputs in BF16.
func sramBytes(op *model.Op) float64 {
	return float64(op.M*op.K)*2 + float64(op.K*op.N)*float64(op.WeightBits)/8 + float64(op.M*op.N)*2
}

// Simulate runs one workload pass through the performance and cost
// models. It allocates nothing.
//
// It reads the design, cost table and operators in place, and computes
// the rates and energies that depend only on the design and cost table
// once, before the operator loop. Every floating-point expression keeps
// a fixed operand order, which TestSimulatePinned holds to the bit. The
// by-value signature stays because the benchmark module, outside this
// one, compiles against it.
//
//mugi:noalloc
func Simulate(p Params, w model.Workload) Result {
	p.applyDefaults()
	d := &p.Design
	nodes := p.Mesh.SpeedupFactor()
	layers := float64(w.Model.Layers)
	peakMACs := d.PeakMACsPerCycle()
	nlPerCycle := d.NLElementsPerCycle()                          //mugi:coldalloc inlined unknown-scheme panic arg; a built design never takes it
	energyMAC := d.EnergyPerMAC(p.Cost)                           //mugi:coldalloc inlined unknown-kind panic arg; a built design never takes it
	energyNL := d.EnergyPerNLElement(p.Cost) + p.Cost.EnergyVecOp //mugi:coldalloc inlined unknown-scheme panic arg; a built design never takes it

	res := Result{Design: p.Design, Mesh: p.Mesh}
	var usefulMACs, capacityMACs float64
	for i := range w.Ops {
		op := &w.Ops[i]
		rep := float64(max(op.Repeat, 1))
		if op.Class == model.Nonlinear {
			cyc := nlCycles(d, op, nlPerCycle) * rep * layers / nodes
			res.CyclesByClass[model.Nonlinear] += cyc
			res.EnergyByClass[model.Nonlinear] += float64(op.Elements) * rep * layers * energyNL
			continue
		}
		cyc, useful, capacity := gemmCycles(d, op, peakMACs)
		totalCyc := cyc * rep * layers / nodes
		res.CyclesByClass[op.Class] += totalCyc
		usefulMACs += useful * rep * layers
		capacityMACs += capacity * rep * layers
		idle := (capacity - useful) * rep * layers
		energy := useful*rep*layers*energyMAC +
			idle*p.Cost.EnergyIdlePE +
			sramBytes(op)*rep*layers*p.Cost.EnergySRAMByte +
			float64(op.M*op.N)*rep*layers*p.Cost.EnergyVecOp // dequant rescale
		res.EnergyByClass[op.Class] += energy
	}
	// Sum in model.OpClass order, the arrays' index order, so
	// TotalCycles (and DynamicEnergy below) are bit-stable.
	for _, c := range res.CyclesByClass {
		res.TotalCycles += c
	}
	if capacityMACs > 0 {
		res.Utilization = usefulMACs / capacityMACs
	}

	res.DRAMBytes = w.DRAMBytesPerPass()
	res.DRAMEnergy = float64(res.DRAMBytes) * p.Cost.EnergyDRAMByte
	res.ComputeSeconds = res.TotalCycles / p.Cost.Frequency
	res.MemorySeconds = float64(res.DRAMBytes) / p.Bandwidth
	res.Seconds = res.ComputeSeconds
	if res.MemorySeconds > res.Seconds {
		res.Seconds = res.MemorySeconds
	}
	if p.Mesh.Nodes() > 1 {
		res.NoCRequiredBandwidth = p.Mesh.RequiredBandwidth(res.DRAMBytes, res.Seconds)
		res.NoCBandwidth = p.NoCBandwidth
		if p.NoCBandwidth > 0 && res.NoCRequiredBandwidth > p.NoCBandwidth {
			// Fail-safe: an under-provisioned network throttles the pass
			// to its streaming time instead of silently overreporting
			// throughput.
			res.NoCLimited = true
			res.Seconds = float64(res.DRAMBytes) / p.NoCBandwidth
		}
	}

	for _, e := range res.EnergyByClass {
		res.DynamicEnergy += e
	}
	res.DynamicEnergy += res.DRAMEnergy
	res.DynamicEnergy += p.Mesh.TransferEnergy(res.DRAMBytes)

	res.LeakageWatts = d.LeakageWatts(p.Cost)*nodes + p.Mesh.LeakageWatts(p.Cost)
	if res.Seconds > 0 {
		res.PowerWatts = res.LeakageWatts + res.DynamicEnergy/res.Seconds
		res.TokensPerSecond = float64(w.TokensPerPass()) / res.Seconds
	}
	return res
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
