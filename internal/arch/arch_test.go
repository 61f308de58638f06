package arch

import (
	"math"
	"strings"
	"testing"
)

// within checks x is within tol (fractional) of want.
func within(t *testing.T, name string, x, want, tol float64) {
	t.Helper()
	if want == 0 {
		if x != 0 {
			t.Errorf("%s: got %v, want 0", name, x)
		}
		return
	}
	if r := math.Abs(x-want) / math.Abs(want); r > tol {
		t.Errorf("%s: got %v, want %v (±%.0f%%)", name, x, want, tol*100)
	}
}

func TestMugiAreasMatchTable3(t *testing.T) {
	// Paper Table 3 on-chip areas: Mugi(128) 2.16 mm², Mugi(256) 3.10 mm².
	within(t, "Mugi(128)", Mugi(128).Area(&Cost45nm).Total(), 2.16, 0.15)
	within(t, "Mugi(256)", Mugi(256).Area(&Cost45nm).Total(), 3.10, 0.15)
}

func TestCaratAreasMatchTable3(t *testing.T) {
	// Carat(128) 2.42 mm², Carat(256) 3.84 mm².
	within(t, "Carat(128)", Carat(128).Area(&Cost45nm).Total(), 2.42, 0.20)
	within(t, "Carat(256)", Carat(256).Area(&Cost45nm).Total(), 3.84, 0.20)
}

func TestBaselineAreasMatchTable3(t *testing.T) {
	within(t, "SA(16)", SystolicArray(16, false).Area(&Cost45nm).Total(), 2.58, 0.20)
	within(t, "SA-F(16)", SystolicArray(16, true).Area(&Cost45nm).Total(), 2.81, 0.20)
	within(t, "SD(16)", SIMDArray(16, false).Area(&Cost45nm).Total(), 2.54, 0.20)
	within(t, "Tensor", TensorCore().Area(&Cost45nm).Total(), 38.75, 0.20)
}

func TestMugiArrayLevelAreaMatchesFig13(t *testing.T) {
	// Fig. 13 array-level (no SRAM): Mugi(128) ~0.5 mm², Mugi(256) ~0.9.
	within(t, "Mugi(128) array", Mugi(128).Area(&Cost45nm).ArrayTotal()-Mugi(128).Area(&Cost45nm).Vector, 0.5, 0.25)
}

func TestPlacedAndRoutedNode(t *testing.T) {
	// The paper P&Rs a single 8×8 Mugi node at 0.056 mm² (§5.4): the PE +
	// TC + FIFO + accumulator cluster at that size should be in range.
	d := Mugi(8)
	b := d.Area(&Cost45nm)
	arrayOnly := b.PE + b.Acc + b.TC + b.FIFO
	within(t, "8x8 node", arrayOnly, 0.056, 0.6)
}

func TestCaratBufferOverheadRatio(t *testing.T) {
	// Paper §4.2: Mugi's broadcast + output-buffer leaning lowers total
	// buffer area by ~4.5× vs Carat at the evaluated sizes.
	m := Mugi(256).Area(&Cost45nm)
	c := Carat(256).Area(&Cost45nm)
	ratio := c.FIFO / m.FIFO
	if ratio < 3.5 || ratio > 6.5 {
		t.Errorf("buffer ratio %.2f, want ~4.5", ratio)
	}
}

func TestAreaOrderings(t *testing.T) {
	c := &Cost45nm
	// FIGNA PEs are larger than plain MAC PEs.
	if SystolicArray(16, true).Area(c).Total() <= SystolicArray(16, false).Area(c).Total() {
		t.Error("FIGNA should be larger")
	}
	// Mugi-L spends extra area on the LUT bank.
	if MugiL(128).Area(c).Total() <= Mugi(128).Area(c).Total() {
		t.Error("Mugi-L should be larger than Mugi")
	}
	// Mugi grows linearly with rows; SA grows quadratically with dim.
	m128, m256 := Mugi(128).Area(c).ArrayTotal(), Mugi(256).Area(c).ArrayTotal()
	if g := m256 / m128; g > 2.3 {
		t.Errorf("Mugi growth %v should be ~linear", g)
	}
	s16, s32 := SystolicArray(16, false).Area(c).PE, SystolicArray(32, false).Area(c).PE
	if g := s32 / s16; math.Abs(g-4) > 0.01 {
		t.Errorf("SA PE growth %v should be 4x", g)
	}
	// The iso-area pairing of Figs. 11-12: an SA(16) node's area fits a
	// Mugi of 128 to 320 rows.
	budget := SystolicArray(16, false).Area(c).Total()
	if got := Mugi(128).Area(c).Total(); got > budget {
		t.Errorf("Mugi(128) area %v exceeds SA(16)'s %v", got, budget)
	}
	if got := Mugi(352).Area(c).Total(); got <= budget {
		t.Errorf("Mugi(352) area %v fits within SA(16)'s %v", got, budget)
	}
}

func TestPeakMACs(t *testing.T) {
	if got := Mugi(256).PeakMACsPerCycle(); got != 256 {
		t.Errorf("Mugi(256) peak %v", got)
	}
	if got := SystolicArray(16, false).PeakMACsPerCycle(); got != 256 {
		t.Errorf("SA(16) peak %v", got)
	}
	if got := TensorCore().PeakMACsPerCycle(); got != 2048 {
		t.Errorf("Tensor peak %v", got)
	}
}

func TestNLThroughputRatiosMatchFig11(t *testing.T) {
	// Normalized to the precise vector array VA(16) = 16/44 elem/cycle,
	// Mugi(128) delivers ~45x, PWL(16) ~1/5 of Mugi, Taylor(16) ~1/10.
	va := SystolicArray(16, false) // hosts the precise 16-lane unit
	mugi := Mugi(128)
	base := va.NLElementsPerCycle()
	within(t, "Mugi/VA", mugi.NLElementsPerCycle()/base, 44, 0.10)
	pwl := va.WithNLScheme(NLPWL, 16)
	within(t, "Mugi/PWL", mugi.NLElementsPerCycle()/pwl.NLElementsPerCycle(), 5, 0.10)
	tay := va.WithNLScheme(NLTaylor, 16)
	within(t, "Mugi/Taylor", mugi.NLElementsPerCycle()/tay.NLElementsPerCycle(), 9, 0.15)
}

func TestMugiLMatchesMugiNLThroughput(t *testing.T) {
	// §5.2.2: 8 inputs share one LUT to match Mugi's throughput.
	if Mugi(128).NLElementsPerCycle() != MugiL(128).NLElementsPerCycle() {
		t.Error("Mugi-L NL throughput should match Mugi")
	}
}

func TestCaratNLSlower(t *testing.T) {
	// Fig. 16: Carat's non-VLP nonlinear unit is ~3x slower than Mugi's.
	ratio := Mugi(128).NLElementsPerCycle() / Carat(128).NLElementsPerCycle()
	if ratio < 2 || ratio > 4.5 {
		t.Errorf("Carat NL slowdown %.2f, want ~3", ratio)
	}
}

func TestEnergyOrdering(t *testing.T) {
	c := &Cost45nm
	if Mugi(128).EnergyPerMAC(c) >= SystolicArray(16, false).EnergyPerMAC(c) {
		t.Error("VLP MAC should be cheaper than multiplier MAC")
	}
	if SystolicArray(16, true).EnergyPerMAC(c) >= SystolicArray(16, false).EnergyPerMAC(c) {
		t.Error("FIGNA MAC should be cheaper than plain MAC")
	}
	if Mugi(128).EnergyPerNLElement(c) >= SystolicArray(16, false).EnergyPerNLElement(c) {
		t.Error("VLP nonlinear should be cheaper than precise")
	}
}

func TestLeakageProportionalToArea(t *testing.T) {
	c := &Cost45nm
	l1 := Mugi(128).LeakageWatts(c)
	l2 := Mugi(256).LeakageWatts(c)
	a1 := Mugi(128).Area(c).Total()
	a2 := Mugi(256).Area(c).Total()
	if math.Abs(l2/l1-a2/a1) > 1e-9 {
		t.Error("leakage not proportional to area")
	}
}

func TestDesignMetadata(t *testing.T) {
	if Mugi(128).Name != "Mugi (128)" {
		t.Error("Mugi metadata")
	}
	if TensorCore().PEs() != 2048 {
		t.Errorf("tensor PEs %d", TensorCore().PEs())
	}
	for _, k := range []Kind{KindMugi, KindMugiL, KindCarat, KindSA, KindSD, KindTensor} {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
	for _, s := range []NLScheme{NLShared, NLLUT, NLPrecise, NLPWL, NLTaylor} {
		if s.String() == "" {
			t.Error("empty scheme name")
		}
	}
}

func TestConstructorsValidate(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func()
	}{
		{"Mugi(0)", func() { Mugi(0) }},
		// Below 8 rows Mugi-L's LUT bank, and below 3 rows Carat's Taylor
		// unit, would have no lane.
		{"MugiL(7)", func() { MugiL(7) }},
		{"MugiL(4)", func() { MugiL(4) }},
		{"Carat(2)", func() { Carat(2) }},
		{"CaratNLUnit(2)", func() { CaratNLUnit(2) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", c.name)
				}
			}()
			c.build()
		}()
	}
	// The smallest accepted dimensions build a one-lane unit.
	if l := MugiL(8).NLLanes; l != 1 {
		t.Errorf("MugiL(8) has %d nonlinear lanes, want 1", l)
	}
	if l := Carat(3).NLLanes; l != 1 {
		t.Errorf("Carat(3) has %d nonlinear lanes, want 1", l)
	}
}

// TestByName builds every design kind by name, in any case and through
// the hyphenated aliases, and rejects unknown kinds and dimensions below
// a design's smallest nonlinear lane.
func TestByName(t *testing.T) {
	cases := []struct {
		kind string
		rows int
		want string
	}{
		{"mugi", 128, "Mugi (128)"},
		{"MUGI", 64, "Mugi (64)"},
		{"mugil", 128, "Mugi-L (128)"},
		{"mugi-l", 128, "Mugi-L (128)"},
		{"carat", 256, "Carat (256)"},
		{"sa", 16, "SA (16)"},
		{"saf", 16, "SA-F (16)"},
		{"sa-f", 16, "SA-F (16)"},
		{"sd", 16, "SD (16)"},
		{"sdf", 16, "SD-F (16)"},
		{"tensor", 0, "Tensor"},
	}
	for _, c := range cases {
		d, err := ByName(c.kind, c.rows)
		if err != nil || d.Name != c.want {
			t.Errorf("ByName(%q, %d) = %q, %v", c.kind, c.rows, d.Name, err)
		}
	}
	if _, err := ByName("tpu", 8); err == nil {
		t.Error("unknown design should error")
	}
	// Below its smallest dimension a design's nonlinear unit has no lane;
	// the error names that dimension.
	for _, c := range []struct {
		kind string
		rows int
		want string
	}{
		{"mugil", 4, "at least 8"},
		{"mugi-l", 7, "at least 8"},
		{"carat", 2, "at least 3"},
	} {
		if _, err := ByName(c.kind, c.rows); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ByName(%q, %d) error %v, want one containing %q", c.kind, c.rows, err, c.want)
		}
	}
}
