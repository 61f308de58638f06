package arch

import "fmt"

// DVFSPoint is one voltage–frequency operating point of a node, the knob
// the fleet autoscaler (internal/autoscale) turns between power states.
// Scales are relative to the cost table's nominal point: FScale
// multiplies the clock, VScale the supply voltage. The zero value (and
// any scale ≤ 0) means nominal — a Params or Config that never mentions
// DVFS behaves exactly as before the knob existed.
//
// The physics applied by CostTable.AtDVFS follows the classic CMOS
// first-order model the DVS literature explores (PAPERS.md, Lakshminarayana
// & Benveniste's assertion-based DVS exploration):
//
//   - step latency scales as 1/f: cycles are unchanged, the clock slows;
//   - dynamic energy per op scales as V²: switching energy is C·V²
//     per transition, so each op (not each second) cheapens quadratically;
//   - leakage power scales as V: subthreshold leakage is roughly linear
//     in supply voltage to first order.
//
// Off-chip constants (EnergyDRAMByte, the HBM bandwidth) are deliberately
// NOT scaled: the memory rail is not on the node's DVFS domain, which is
// what makes slowing down a real trade — compute-bound steps stretch by
// 1/f while memory-bound steps do not shrink their energy at all.
type DVFSPoint struct {
	// Name labels the point in renderings ("full", "p75", "p50").
	Name string
	// FScale multiplies the nominal clock (0 or 1 = nominal).
	FScale float64
	// VScale multiplies the nominal supply voltage (0 or 1 = nominal).
	VScale float64
}

// scales returns the effective (f, v) multipliers, mapping the zero
// value and non-positive scales to nominal 1.0.
func (p DVFSPoint) scales() (f, v float64) {
	f, v = p.FScale, p.VScale
	if f <= 0 {
		f = 1
	}
	if v <= 0 {
		v = 1
	}
	return f, v
}

// IsNominal reports whether the point leaves the cost table unchanged.
func (p DVFSPoint) IsNominal() bool {
	f, v := p.scales()
	return f == 1 && v == 1
}

// String names the point; the zero value renders as "full".
func (p DVFSPoint) String() string {
	if p.Name != "" {
		return p.Name
	}
	if p.IsNominal() {
		return "full"
	}
	f, v := p.scales()
	return fmt.Sprintf("f%.2fv%.2f", f, v)
}

// DVFSStep builds a named operating point at the given frequency scale,
// deriving the voltage from the near-linear V(f) relation of
// voltage-scalable CMOS around its nominal point:
//
//	V/Vnom = 0.6 + 0.4 · f/fnom
//
// so half clock runs at 80% voltage (0.64× dynamic energy per op) and
// full clock at full voltage. The relation is the standard first-order
// fit the DVS exploration literature uses; points built by hand can pick
// any (FScale, VScale) pair.
func DVFSStep(name string, fscale float64) DVFSPoint {
	return DVFSPoint{Name: name, FScale: fscale, VScale: 0.6 + float64(0.4*fscale)}
}

// DVFSLadder is the default three-point ladder the autoscaler walks,
// fastest first: full clock, 3/4 clock at 90% voltage, half clock at 80%
// voltage.
func DVFSLadder() []DVFSPoint {
	return []DVFSPoint{
		{Name: "full", FScale: 1, VScale: 1},
		DVFSStep("p75", 0.75),
		DVFSStep("p50", 0.5),
	}
}

// AtDVFS writes the cost table re-derived at an operating point to *out:
// frequency × f, every on-chip per-op switching energy × v², leakage
// density × v. Areas are silicon and do not change; EnergyDRAMByte stays
// nominal because HBM is not on the node's DVFS rail (see DVFSPoint).
// A nominal point copies the table unchanged. out may be c.
func (c *CostTable) AtDVFS(p DVFSPoint, out *CostTable) {
	*out = *c
	f, v := p.scales()
	if f == 1 && v == 1 {
		return
	}
	e := v * v
	out.Frequency *= f

	out.EnergyVLPMAC *= e
	out.EnergyCaratMAC *= e
	out.EnergyMAC *= e
	out.EnergyFIGNAMAC *= e
	out.EnergyTensorMAC *= e
	out.EnergyIdlePE *= e
	out.EnergyNLPrecise *= e
	out.EnergyNLPWL *= e
	out.EnergyNLTaylor *= e
	out.EnergyNLLUT *= e
	out.EnergyNLVLP *= e
	out.EnergyVecOp *= e
	out.EnergySRAMByte *= e

	out.LeakagePerMM2 *= v
}
