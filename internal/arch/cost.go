package arch

import "math"

// CostTable holds the per-component area and energy constants of the
// evaluation technology. The paper obtains these by synthesizing RTL at
// 45 nm / 400 MHz and querying CACTI7 for memories; the reproduction
// substitutes a table calibrated against the paper's published roll-ups
// (DESIGN.md §2): Table 3 on-chip areas, the Fig. 13 array-level
// area/power breakdowns, and the 0.056 mm² placed-and-routed 8×8 node.
type CostTable struct {
	// Frequency is the nominal clock in Hz.
	Frequency float64

	// Areas in mm².
	AreaVLPPE     float64 // AND gate + T register + OR-tree share
	AreaVLPAccPE  float64 // output-stationary accumulator per VLP PE
	AreaMACPE     float64 // BF16×INT4 multiply-accumulate PE
	AreaFIGNAPE   float64 // FIGNA integer-unit FP-INT PE
	AreaTensorPE  float64 // tensor-core FP16 MAC stage
	AreaTC        float64 // temporal converter + counter slice, per row
	AreaLeanFIFO  float64 // Mugi broadcast + leaned output FIFO, per row
	AreaCaratFIFO float64 // Carat pipelined FIFO coefficient (× rows^1.5)
	AreaLUTLane   float64 // Mugi-L programmable LUT bank per lane
	AreaNLLane    float64 // vector nonlinear unit per lane (precise MAC)
	AreaNLPWLExt  float64 // extra per-lane coefficient regs + comparators
	AreaNLTayExt  float64 // extra per-lane Taylor coefficient regs
	AreaVecLane   float64 // general vector unit per lane
	AreaSRAMPerKB float64 // on-chip SRAM
	AreaAccCol    float64 // systolic output accumulator per column

	// Energies in joules per operation.
	EnergyVLPMAC    float64 // effective MAC via subscription (incl. regs)
	EnergyCaratMAC  float64 // as above plus pipelined-FIFO movement
	EnergyMAC       float64 // BF16×INT4 MAC
	EnergyFIGNAMAC  float64 // FIGNA FP-INT MAC
	EnergyTensorMAC float64 // tensor-core MAC (amortized, pipelined)
	EnergyIdlePE    float64 // clocked but idle PE, per cycle
	EnergyNLPrecise float64 // per element on the precise vector lane
	EnergyNLPWL     float64
	EnergyNLTaylor  float64
	EnergyNLLUT     float64 // Mugi-L LUT lookup per element
	EnergyNLVLP     float64 // Mugi shared-array approximation per element
	EnergyVecOp     float64 // vector lane op (dequant scale, division)
	EnergySRAMByte  float64 // on-chip SRAM access per byte
	EnergyDRAMByte  float64 // HBM access per byte

	// LeakagePerMM2 is static power density in W/mm².
	LeakagePerMM2 float64
}

// Cost45nm is the calibrated table used throughout the evaluation.
var Cost45nm = CostTable{
	Frequency: 400e6,

	AreaVLPPE:     2.0e-4,
	AreaVLPAccPE:  1.5e-4,
	AreaMACPE:     3.1e-3,
	AreaFIGNAPE:   4.0e-3,
	AreaTensorPE:  1.50e-2,
	AreaTC:        3.0e-4,
	AreaLeanFIFO:  6.0e-4,
	AreaCaratFIFO: 1.85e-4, // × rows^1.5: reproduces the 4.5× buffer gap
	AreaLUTLane:   1.5e-2,
	AreaNLLane:    6.0e-3,
	AreaNLPWLExt:  2.5e-3, // 22 segments × 2 coeff regs + comparators
	AreaNLTayExt:  1.2e-3, // 10 coefficient registers
	AreaVecLane:   1.5e-2,
	AreaSRAMPerKB: 8.0e-3,
	AreaAccCol:    1.0e-3,

	EnergyVLPMAC:    0.45e-12,
	EnergyCaratMAC:  0.55e-12,
	EnergyMAC:       1.90e-12,
	EnergyFIGNAMAC:  1.70e-12,
	EnergyTensorMAC: 1.10e-12,
	EnergyIdlePE:    0.19e-12,
	// Nonlinear per-element energies: calibrated so the Fig. 11 iso-area
	// ratios come out (precise/VLP ~10.7x per element, PWL/VLP ~1.7x,
	// Taylor/VLP ~3.3x).
	EnergyNLPrecise: 70e-12, // 44-cycle iterative MAC sequence
	EnergyNLPWL:     11e-12,
	EnergyNLTaylor:  21e-12,
	EnergyNLLUT:     6.0e-12,
	EnergyNLVLP:     6.5e-12,
	EnergyVecOp:     2.0e-12,
	EnergySRAMByte:  0.50e-12,
	EnergyDRAMByte:  4.0e-12,

	LeakagePerMM2: 0.055,
}

// Breakdown is a component-level area report in mm², with the categories
// of the paper's Fig. 13.
type Breakdown struct {
	PE        float64 // compute PEs
	Acc       float64 // output accumulators
	FIFO      float64 // input/output buffering
	TC        float64 // temporal converters
	Nonlinear float64 // dedicated nonlinear hardware
	Vector    float64 // general vector unit
	SRAM      float64 // on-chip SRAM
}

// ArrayTotal is the array-level area (everything but SRAM), the quantity
// plotted in the cool-colored bars of Fig. 13.
func (b Breakdown) ArrayTotal() float64 {
	return b.PE + b.Acc + b.FIFO + b.TC + b.Nonlinear + b.Vector
}

// Total is the full on-chip area (Table 3's "OC Area").
func (b Breakdown) Total() float64 { return b.ArrayTotal() + b.SRAM }

// Area computes the design's component-level area under the cost table.
func (d Design) Area(c *CostTable) Breakdown {
	var b Breakdown
	pes := float64(d.PEs())
	switch d.Kind {
	case KindMugi, KindMugiL:
		b.PE = pes * c.AreaVLPPE
		b.Acc = pes * c.AreaVLPAccPE
		b.TC = float64(d.Rows) * c.AreaTC
		b.FIFO = float64(d.Rows) * c.AreaLeanFIFO
	case KindCarat:
		b.PE = pes * c.AreaVLPPE
		b.Acc = pes * c.AreaVLPAccPE
		b.TC = float64(d.Rows) * c.AreaTC
		// Pipelined input FIFOs plus double-buffered OR trees: the cost
		// the paper reports scaling super-linearly (§4.2, Fig. 13).
		b.FIFO = float64(float64(d.Rows)*c.AreaLeanFIFO) + float64(c.AreaCaratFIFO*math.Pow(float64(d.Rows), 1.5))
	case KindSA, KindSD:
		per := c.AreaMACPE
		if d.FIGNA {
			per = c.AreaFIGNAPE
		}
		b.PE = pes * per
		b.Acc = float64(d.Cols) * c.AreaAccCol
	case KindTensor:
		b.PE = pes * c.AreaTensorPE
		b.Acc = float64(d.Rows*d.Cols) * c.AreaVLPAccPE
	}
	switch d.NL {
	case NLLUT:
		b.Nonlinear = float64(d.NLLanes) * c.AreaLUTLane
	case NLPrecise:
		b.Nonlinear = float64(d.NLLanes) * c.AreaNLLane
	case NLPWL:
		b.Nonlinear = float64(d.NLLanes) * (c.AreaNLLane + c.AreaNLPWLExt)
	case NLTaylor:
		b.Nonlinear = float64(d.NLLanes) * (c.AreaNLLane + c.AreaNLTayExt)
	}
	b.Vector = float64(d.VectorLanes) * c.AreaVecLane
	b.SRAM = float64(d.SRAMKB) * c.AreaSRAMPerKB
	return b
}

// LeakageWatts is the design's static power.
func (d Design) LeakageWatts(c *CostTable) float64 {
	return d.Area(c).Total() * c.LeakagePerMM2
}

// EnergyPerMAC is the active energy of one effective MAC on the GEMM array.
func (d Design) EnergyPerMAC(c *CostTable) float64 {
	switch d.Kind {
	case KindMugi, KindMugiL:
		return c.EnergyVLPMAC
	case KindCarat:
		return c.EnergyCaratMAC
	case KindSA, KindSD:
		if d.FIGNA {
			return c.EnergyFIGNAMAC
		}
		return c.EnergyMAC
	case KindTensor:
		return c.EnergyTensorMAC
	}
	panic("arch: unknown kind")
}

// EnergyPerNLElement is the energy of one nonlinear element on the
// design's nonlinear unit.
func (d Design) EnergyPerNLElement(c *CostTable) float64 {
	switch d.NL {
	case NLShared:
		return c.EnergyNLVLP
	case NLLUT:
		return c.EnergyNLLUT
	case NLPrecise:
		return c.EnergyNLPrecise
	case NLPWL:
		return c.EnergyNLPWL
	case NLTaylor:
		return c.EnergyNLTaylor
	}
	panic("arch: unknown NL scheme")
}

// NLCyclesPerElement is the per-lane initiation interval of the design's
// nonlinear unit.
func (d Design) NLCyclesPerElement() float64 {
	switch d.NL {
	case NLShared:
		return 8 // mantissa temporal window, pipelined (3-bit)
	case NLLUT:
		return 1
	case NLPrecise:
		return 44
	case NLPWL:
		return 5 // ceil(log2(22 segments))
	case NLTaylor:
		return 9 // degree-9 Horner
	}
	panic("arch: unknown NL scheme")
}

// NLElementsPerCycle is the node-level nonlinear throughput.
func (d Design) NLElementsPerCycle() float64 {
	if d.NL == NLShared {
		// The whole VLP array runs the approximation: one element per row
		// per 8-cycle window.
		return float64(d.Rows) / d.NLCyclesPerElement()
	}
	return float64(d.NLLanes) / d.NLCyclesPerElement()
}
