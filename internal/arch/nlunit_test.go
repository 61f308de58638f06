package arch

import "testing"

func TestNLUnitFig11Ratios(t *testing.T) {
	c := Cost45nm
	base := VectorNLUnit(NLPrecise, 16)
	mugi := MugiNLUnit(128)

	thr := mugi.ThroughputPerSecond(c) / base.ThroughputPerSecond(c)
	if thr < 40 || thr > 50 {
		t.Errorf("throughput ratio %.1f, paper ~45x", thr)
	}
	ee := mugi.EnergyEfficiency(c) / base.EnergyEfficiency(c)
	if ee < 350 || ee > 650 {
		t.Errorf("energy-efficiency ratio %.0f, paper ~481x", ee)
	}
	pe := mugi.PowerEfficiency(c) / base.PowerEfficiency(c)
	if pe < 7 || pe > 15 {
		t.Errorf("power-efficiency ratio %.1f, paper ~10.7x", pe)
	}
}

func TestNLUnitPWLTaylorRatios(t *testing.T) {
	c := Cost45nm
	mugi := MugiNLUnit(128)
	pwl := VectorNLUnit(NLPWL, 16)
	tay := VectorNLUnit(NLTaylor, 16)

	if r := mugi.ThroughputPerSecond(c) / pwl.ThroughputPerSecond(c); r < 4 || r > 6.5 {
		t.Errorf("Mugi/PWL throughput %.1f, paper ~5x", r)
	}
	if r := mugi.EnergyEfficiency(c) / pwl.EnergyEfficiency(c); r < 5 || r > 14 {
		t.Errorf("Mugi/PWL EE %.1f, paper ~8.5x", r)
	}
	if r := mugi.ThroughputPerSecond(c) / tay.ThroughputPerSecond(c); r < 7 || r > 13 {
		t.Errorf("Mugi/Taylor throughput %.1f, paper ~10x", r)
	}
	if r := mugi.EnergyEfficiency(c) / tay.EnergyEfficiency(c); r < 20 || r > 50 {
		t.Errorf("Mugi/Taylor EE %.1f, paper ~33x", r)
	}
}

func TestNLUnitValidates(t *testing.T) {
	for name, f := range map[string]func(){
		"mugi":  func() { MugiNLUnit(0) },
		"carat": func() { CaratNLUnit(-1) },
		"va":    func() { VectorNLUnit(NLPWL, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCaratNLUnit(t *testing.T) {
	u := CaratNLUnit(128)
	if u.Scheme != NLTaylor || u.Lanes != 48 {
		t.Errorf("Carat unit %+v", u)
	}
	// Carat's nonlinear throughput trails Mugi's (Fig. 16: ~3x).
	r := MugiNLUnit(128).ElementsPerCycle() / u.ElementsPerCycle()
	if r < 2 || r > 4.5 {
		t.Errorf("Mugi/Carat NL ratio %.2f", r)
	}
}
