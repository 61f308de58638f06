package arch

import "fmt"

// NLUnit models a standalone nonlinear execution engine for the iso-area
// study of Fig. 11: either a vector array hosting a software-visible
// scheme (precise, PWL, Taylor — the paper's VA-FP and VA-AP columns), or
// a VLP array running the shared temporal approximation (Mugi), or the
// LUT bank of Mugi-L.
type NLUnit struct {
	Name   string
	Scheme NLScheme
	// Lanes is the vector width for vector-array schemes, or the array
	// height for NLShared.
	Lanes int
}

// MugiNLUnit is the Mugi array of the given height acting as the nonlinear
// engine.
func MugiNLUnit(rows int) NLUnit {
	checkRows(rows)
	return NLUnit{Name: fmt.Sprintf("Mugi (%d)", rows), Scheme: NLShared, Lanes: rows}
}

// CaratNLUnit is prior VLP hardware paired with its separate Taylor vector
// unit (Fig. 11's Carat columns). It panics below 3 rows.
func CaratNLUnit(rows int) NLUnit {
	checkMinRows(KindCarat, rows, minCaratRows)
	return NLUnit{Name: fmt.Sprintf("Carat (%d)", rows), Scheme: NLTaylor, Lanes: 3 * rows / 8}
}

// VectorNLUnit is a standalone vector array hosting the given scheme
// (VA-FP for NLPrecise, VA-AP for NLPWL/NLTaylor).
func VectorNLUnit(scheme NLScheme, lanes int) NLUnit {
	if lanes < 1 {
		panic(fmt.Sprintf("arch: NL unit lanes %d < 1", lanes))
	}
	prefix := "VA-AP"
	if scheme == NLPrecise {
		prefix = "VA-FP"
	}
	return NLUnit{Name: fmt.Sprintf("%s %v (%d)", prefix, scheme, lanes), Scheme: scheme, Lanes: lanes}
}

// ElementsPerCycle is the unit's sustained throughput.
func (u NLUnit) ElementsPerCycle() float64 {
	d := Design{NL: u.Scheme, NLLanes: u.Lanes, Rows: u.Lanes}
	return d.NLElementsPerCycle()
}

// EnergyPerElement is the dynamic energy per evaluated element.
func (u NLUnit) EnergyPerElement(c CostTable) float64 {
	d := Design{NL: u.Scheme}
	return d.EnergyPerNLElement(c)
}

// AreaMM2 is the silicon the unit occupies. For NLShared it is the VLP
// array itself (which Mugi reuses for GEMM — the sustainability argument —
// but which the iso-area study still charges).
func (u NLUnit) AreaMM2(c CostTable) float64 {
	switch u.Scheme {
	case NLShared:
		pe := float64(u.Lanes*8) * (c.AreaVLPPE + c.AreaVLPAccPE)
		return pe + float64(u.Lanes)*(c.AreaTC+c.AreaLeanFIFO)
	case NLLUT:
		return float64(u.Lanes) * c.AreaLUTLane
	case NLPrecise:
		return float64(u.Lanes) * c.AreaNLLane
	case NLPWL:
		return float64(u.Lanes) * (c.AreaNLLane + c.AreaNLPWLExt)
	case NLTaylor:
		return float64(u.Lanes) * (c.AreaNLLane + c.AreaNLTayExt)
	}
	panic("arch: unknown scheme")
}

// ThroughputPerSecond is elements/s at the table frequency.
func (u NLUnit) ThroughputPerSecond(c CostTable) float64 {
	return u.ElementsPerCycle() * c.Frequency
}

// PowerWatts is leakage plus dynamic power at full occupancy.
func (u NLUnit) PowerWatts(c CostTable) float64 {
	leak := u.AreaMM2(c) * c.LeakagePerMM2
	dyn := u.ThroughputPerSecond(c) * u.EnergyPerElement(c)
	return leak + dyn
}

// EnergyEfficiency is throughput per unit energy-per-element — the
// throughput/energy metric of Fig. 11 (higher is better).
func (u NLUnit) EnergyEfficiency(c CostTable) float64 {
	return u.ThroughputPerSecond(c) / u.EnergyPerElement(c)
}

// PowerEfficiency is throughput per watt.
func (u NLUnit) PowerEfficiency(c CostTable) float64 {
	return u.ThroughputPerSecond(c) / u.PowerWatts(c)
}
