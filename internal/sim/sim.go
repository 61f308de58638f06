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
	// DVFS is the node's voltage–frequency operating point. The pass
	// prices at Cost re-derived at this point (clock × f, per-op
	// switching energy × v², leakage × v — see arch.DVFSPoint). The zero
	// value is the nominal point.
	DVFS arch.DVFSPoint
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
	return float64(float64(op.M*op.K)*2) + float64(float64(op.K*op.N)*float64(op.WeightBits)/8) + float64(float64(op.M*op.N)*2)
}

// Simulate is SimulateInto on copies of its inputs. It stays because the
// benchmark module, outside this one, and mugi.Simulate call it by value.
//
//mugi:noalloc
func Simulate(p Params, w model.Workload) Result {
	var res Result
	SimulateInto(&p, &w, &res)
	return res
}

// SimulateInto runs one workload pass through the performance and cost
// models and writes it to *res, overwriting every field. It reads *p and
// *w in place, writes neither, and allocates nothing.
//
// The zero-value defaults resolve into locals: the HBM bandwidth, a
// single node, the 45 nm cost table and the mesh's provisioned NoC
// bandwidth. An off-nominal DVFS point is folded into a copy of the cost
// table on the stack. So an implicit default prices like its explicit
// spelling, and a DVFS point like its hand-scaled cost table with a zero
// DVFS. The off-chip bandwidth is defaulted before the fold and the
// NoC's after it: HBM is not on the DVFS rail, while the mesh links
// clock with the node.
//
// The rates and energies that depend only on the design and cost table
// are computed once, before the operator loop. Every floating-point
// expression keeps a fixed operand order, which TestSimulatePinned holds
// to the bit, and every product that meets an addition is rounded with
// float64(...) first, so no GOARCH fuses it into a multiply-add. One
// difference across GOARCHes may remain: Carat's FIFO area takes
// math.Pow, whose Log and Exp are assembly on amd64 and Go elsewhere, so
// a Carat design's area, leakage and power may round differently off
// amd64.
//
//mugi:noalloc
func SimulateInto(p *Params, w *model.Workload, res *Result) {
	bandwidth := p.Bandwidth
	if bandwidth == 0 {
		bandwidth = HBMBandwidth
	}
	mesh := p.Mesh
	if mesh.Nodes() == 0 {
		mesh = noc.Single
	}
	cost := &p.Cost
	if cost.Frequency == 0 {
		cost = &arch.Cost45nm
	}
	if !p.DVFS.IsNominal() {
		var scaled arch.CostTable
		cost.AtDVFS(p.DVFS, &scaled)
		cost = &scaled
	}
	nocBandwidth := p.NoCBandwidth
	if nocBandwidth == 0 {
		nocBandwidth = mesh.ProvisionedBandwidth(cost.Frequency)
	}

	d := &p.Design
	nodes := mesh.SpeedupFactor()
	layers := float64(w.Model.Layers)
	peakMACs := d.PeakMACsPerCycle()
	nlPerCycle := d.NLElementsPerCycle()                      //mugi:coldalloc inlined unknown-scheme panic arg; a built design never takes it
	energyMAC := d.EnergyPerMAC(cost)                         //mugi:coldalloc inlined unknown-kind panic arg; a built design never takes it
	energyNL := d.EnergyPerNLElement(cost) + cost.EnergyVecOp //mugi:coldalloc inlined unknown-scheme panic arg; a built design never takes it

	*res = Result{}
	res.Design = p.Design
	res.Mesh = mesh
	var usefulMACs, capacityMACs float64
	for i := range w.Ops {
		op := &w.Ops[i]
		rep := float64(max(op.Repeat, 1))
		if op.Class == model.Nonlinear {
			cyc := nlCycles(d, op, nlPerCycle) * rep * layers / nodes
			res.CyclesByClass[model.Nonlinear] += cyc
			res.EnergyByClass[model.Nonlinear] += float64(float64(op.Elements) * rep * layers * energyNL)
			continue
		}
		cyc, useful, capacity := gemmCycles(d, op, peakMACs)
		totalCyc := cyc * rep * layers / nodes
		res.CyclesByClass[op.Class] += totalCyc
		usefulMACs += float64(useful * rep * layers)
		capacityMACs += float64(capacity * rep * layers)
		idle := (capacity - useful) * rep * layers
		energy := float64(useful*rep*layers*energyMAC) +
			float64(idle*cost.EnergyIdlePE) +
			float64(sramBytes(op)*rep*layers*cost.EnergySRAMByte) +
			float64(float64(op.M*op.N)*rep*layers*cost.EnergyVecOp) // dequant rescale
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
	res.DRAMEnergy = float64(res.DRAMBytes) * cost.EnergyDRAMByte
	res.ComputeSeconds = res.TotalCycles / cost.Frequency
	res.MemorySeconds = float64(res.DRAMBytes) / bandwidth
	res.Seconds = res.ComputeSeconds
	if res.MemorySeconds > res.Seconds {
		res.Seconds = res.MemorySeconds
	}
	if mesh.Nodes() > 1 {
		res.NoCRequiredBandwidth = mesh.RequiredBandwidth(res.DRAMBytes, res.Seconds)
		res.NoCBandwidth = nocBandwidth
		if nocBandwidth > 0 && res.NoCRequiredBandwidth > nocBandwidth {
			// Fail-safe: an under-provisioned network throttles the pass
			// to its streaming time instead of silently overreporting
			// throughput.
			res.NoCLimited = true
			res.Seconds = float64(res.DRAMBytes) / nocBandwidth
		}
	}

	for _, e := range res.EnergyByClass {
		res.DynamicEnergy += e
	}
	res.DynamicEnergy += res.DRAMEnergy
	res.DynamicEnergy += mesh.TransferEnergy(res.DRAMBytes)

	res.LeakageWatts = float64(d.LeakageWatts(cost)*nodes) + float64(mesh.LeakageWatts(cost))
	if res.Seconds > 0 {
		res.PowerWatts = res.LeakageWatts + res.DynamicEnergy/res.Seconds
		res.TokensPerSecond = float64(w.TokensPerPass()) / res.Seconds
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
