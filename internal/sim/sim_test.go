package sim

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
)

func decode70B() model.Workload {
	return model.Llama2_70B_GQA.DecodeOps(8, 4096)
}

func simulate(d arch.Design, mesh noc.Mesh, w model.Workload) Result {
	return Simulate(Params{Design: d, Mesh: mesh}, w)
}

func TestTable3SingleNodeThroughput(t *testing.T) {
	// Paper Table 3 (Llama-2 70B GQA, batch 8, seq 4096): Mugi(128) 0.71
	// tok/s, Mugi(256) 1.39, SA(16) 0.67. Match within 15%.
	w := decode70B()
	cases := []struct {
		d    arch.Design
		want float64
	}{
		{arch.Mugi(128), 0.71},
		{arch.Mugi(256), 1.39},
		{arch.Carat(128), 0.70},
		{arch.Carat(256), 1.38},
		{arch.SystolicArray(16, false), 0.67},
		{arch.SIMDArray(16, false), 0.67},
		{arch.SystolicArray(64, false), 2.70},
		{arch.TensorCore(), 10.06},
	}
	for _, c := range cases {
		got := simulate(c.d, noc.Single, w).TokensPerSecond
		if r := math.Abs(got-c.want) / c.want; r > 0.15 {
			t.Errorf("%s: %.3f tok/s, paper %.2f (off %.0f%%)", c.d.Name, got, c.want, r*100)
		}
	}
}

func TestTable3HeadlineRatios(t *testing.T) {
	// Mugi(256) vs SA(16): ~2.07x throughput, ~3.11x energy efficiency,
	// better power efficiency (paper 1.50x).
	w := decode70B()
	mugi := simulate(arch.Mugi(256), noc.Single, w)
	sa := simulate(arch.SystolicArray(16, false), noc.Single, w)

	thr := mugi.TokensPerSecond / sa.TokensPerSecond
	if thr < 1.8 || thr > 2.4 {
		t.Errorf("throughput ratio %.2f, paper 2.07", thr)
	}
	ee := mugi.TokensPerJoule(8) / sa.TokensPerJoule(8)
	if ee < 2.3 || ee > 4.0 {
		t.Errorf("energy-efficiency ratio %.2f, paper 3.11", ee)
	}
	pe := mugi.TokensPerSecondPerWatt() / sa.TokensPerSecondPerWatt()
	if pe < 1.1 || pe > 3.0 {
		t.Errorf("power-efficiency ratio %.2f, paper 1.50", pe)
	}
}

func TestNoCScalesLinearly(t *testing.T) {
	// Table 3: 4×4 Mugi(256) = 22.19 tok/s = 16 × single node.
	w := decode70B()
	single := simulate(arch.Mugi(256), noc.Single, w)
	mesh := simulate(arch.Mugi(256), noc.NewMesh(4, 4), w)
	if r := mesh.TokensPerSecond / single.TokensPerSecond; math.Abs(r-16) > 0.5 {
		t.Errorf("NoC speedup %.2f, want ~16 (compute-bound)", r)
	}
	if mesh.TokensPerSecond < 19 || mesh.TokensPerSecond > 26 {
		t.Errorf("4x4 Mugi(256) %.2f tok/s, paper 22.19", mesh.TokensPerSecond)
	}
}

func TestComputeBoundAtBatch8(t *testing.T) {
	// The paper observes nearly identical operational intensity across
	// designs with computation the binding constraint at batch 8.
	w := decode70B()
	r := simulate(arch.Mugi(256), noc.Single, w)
	if r.ComputeSeconds <= r.MemorySeconds {
		t.Errorf("expected compute-bound: compute %.3fs memory %.3fs",
			r.ComputeSeconds, r.MemorySeconds)
	}
	if r.Seconds != r.ComputeSeconds {
		t.Error("Seconds should be the max term")
	}
}

func TestMemoryBoundAtBatch1SmallArray(t *testing.T) {
	// A huge mesh on a tiny workload becomes memory-bound; Seconds must
	// follow the memory term.
	w := model.Llama2_70B_GQA.DecodeOps(1, 128)
	r := simulate(arch.Mugi(256), noc.NewMesh(8, 8), w)
	if r.MemorySeconds <= r.ComputeSeconds {
		t.Skip("not memory bound under current calibration")
	}
	if r.Seconds != r.MemorySeconds {
		t.Error("Seconds should follow memory when memory-bound")
	}
}

func TestMugiPeaksAtBatch8(t *testing.T) {
	// Fig. 14: Mugi's per-pass utilization peaks once batch fills the 8
	// columns; throughput per token stops improving beyond batch 8.
	perTokenCycles := func(batch int) float64 {
		w := model.Llama2_7B.DecodeOps(batch, 4096)
		r := simulate(arch.Mugi(256), noc.Single, w)
		return r.TotalCycles / float64(batch)
	}
	c1, c8, c16 := perTokenCycles(1), perTokenCycles(8), perTokenCycles(16)
	if c8 >= c1 {
		t.Errorf("batch 8 (%.0f) should be cheaper per token than batch 1 (%.0f)", c8, c1)
	}
	// Beyond 8, per-token cost is flat (within 5%).
	if math.Abs(c16-c8)/c8 > 0.05 {
		t.Errorf("per-token cycles: batch8 %.0f batch16 %.0f, expected flat", c8, c16)
	}
}

func TestGQAImprovesAttentionThroughput(t *testing.T) {
	// Fig. 12's GQA column: 70B with GQA runs attention faster than MHA
	// on Mugi because the query group fills the columns.
	gqa := simulate(arch.Mugi(256), noc.Single, model.Llama2_70B_GQA.DecodeOps(8, 4096))
	mha := simulate(arch.Mugi(256), noc.Single, model.Llama2_70B.DecodeOps(8, 4096))
	if gqa.CyclesByClass[model.Attention] >= mha.CyclesByClass[model.Attention] {
		t.Errorf("GQA attention %.0f >= MHA %.0f cycles",
			gqa.CyclesByClass[model.Attention], mha.CyclesByClass[model.Attention])
	}
}

func TestNonlinearLatencyNegligibleOnMugi(t *testing.T) {
	// Fig. 16: Mugi's nonlinear latency is "almost invisible"; on SA with
	// a precise vector array it is a visible share.
	w := decode70B()
	mugi := simulate(arch.Mugi(256), noc.Single, w)
	sa := simulate(arch.SystolicArray(16, false), noc.Single, w)
	mugiShare := mugi.CyclesByClass[model.Nonlinear] / mugi.TotalCycles
	saShare := sa.CyclesByClass[model.Nonlinear] / sa.TotalCycles
	if mugiShare > 0.03 {
		t.Errorf("Mugi nonlinear share %.3f, want <3%%", mugiShare)
	}
	if saShare < 0.05 {
		t.Errorf("SA nonlinear share %.3f, want visible (>5%%)", saShare)
	}
	// Carat's non-VLP nonlinear unit sits in between but above Mugi.
	carat := simulate(arch.Carat(256), noc.Single, w)
	if carat.CyclesByClass[model.Nonlinear] <= mugi.CyclesByClass[model.Nonlinear] {
		t.Error("Carat nonlinear latency should exceed Mugi's")
	}
}

func TestUtilizationOrdering(t *testing.T) {
	// At batch 8, Mugi sustains ~full utilization; SA(16) ~50%; SA(64)
	// ~12.5% (output-stationary with M=8).
	w := decode70B()
	mu := simulate(arch.Mugi(256), noc.Single, w).Utilization
	sa16 := simulate(arch.SystolicArray(16, false), noc.Single, w).Utilization
	sa64 := simulate(arch.SystolicArray(64, false), noc.Single, w).Utilization
	if mu < 0.9 {
		t.Errorf("Mugi utilization %.2f", mu)
	}
	if sa16 > 0.7 || sa16 < 0.35 {
		t.Errorf("SA(16) utilization %.2f, want ~0.5", sa16)
	}
	if sa64 > 0.2 {
		t.Errorf("SA(64) utilization %.2f, want ~0.125", sa64)
	}
}

func TestEnergyBreakdownPositive(t *testing.T) {
	w := decode70B()
	r := simulate(arch.Mugi(256), noc.Single, w)
	for _, cls := range []model.OpClass{model.Projection, model.Attention, model.FFN, model.Nonlinear} {
		if r.EnergyByClass[cls] <= 0 {
			t.Errorf("%v energy %v", cls, r.EnergyByClass[cls])
		}
		if r.CyclesByClass[cls] <= 0 {
			t.Errorf("%v cycles %v", cls, r.CyclesByClass[cls])
		}
	}
	if r.DRAMEnergy <= 0 || r.DynamicEnergy <= r.DRAMEnergy {
		t.Error("degenerate energy totals")
	}
	if r.PowerWatts <= r.LeakageWatts {
		t.Error("power must include dynamic component")
	}
}

func TestDefaultsApplied(t *testing.T) {
	w := model.WhisperTiny.DecodeOps(1, 64)
	r := Simulate(Params{Design: arch.Mugi(32)}, w)
	if r.TokensPerSecond <= 0 {
		t.Error("defaults should produce a valid run")
	}
	if r.Mesh.Nodes() != 1 {
		t.Error("default mesh should be single node")
	}
}

func TestPrefillFasterPerTokenThanDecode(t *testing.T) {
	// Prefill amortizes weights across tokens: tokens/s must be far
	// higher than decode.
	d := arch.Mugi(256)
	pre := simulate(d, noc.Single, model.Llama2_7B.PrefillOps(1, 512))
	dec := simulate(d, noc.Single, model.Llama2_7B.DecodeOps(1, 512))
	if pre.TokensPerSecond <= dec.TokensPerSecond*5 {
		t.Errorf("prefill %.2f tok/s vs decode %.2f", pre.TokensPerSecond, dec.TokensPerSecond)
	}
}

func TestEnergyPerTokenHelper(t *testing.T) {
	w := decode70B()
	r := simulate(arch.Mugi(128), noc.Single, w)
	if r.EnergyPerToken(8)*8 != r.DynamicEnergy {
		t.Error("EnergyPerToken inconsistent")
	}
	if r.EnergyPerToken(0) != 0 {
		t.Error("zero tokens should return 0")
	}
}

// TestNonlinearHonorsRepeat is the regression guard for the dropped
// Op.Repeat on the Nonlinear branch: cycles and energy must scale with the
// repetition count exactly like the GEMM classes.
func TestNonlinearHonorsRepeat(t *testing.T) {
	base := model.Workload{
		Model: model.Llama2_7B, Batch: 1, CtxLen: 128, Decode: true,
		Ops: []model.Op{{Class: model.Nonlinear, Name: "softmax", Elements: 4096, Repeat: 1}},
	}
	rep := base
	rep.Ops = []model.Op{{Class: model.Nonlinear, Name: "softmax", Elements: 4096, Repeat: 3}}
	for _, d := range []arch.Design{arch.Mugi(128), arch.Carat(128), arch.SystolicArray(16, false)} {
		one := simulate(d, noc.Single, base)
		three := simulate(d, noc.Single, rep)
		if r := three.CyclesByClass[model.Nonlinear] / one.CyclesByClass[model.Nonlinear]; math.Abs(r-3) > 1e-9 {
			t.Errorf("%s: Repeat=3 nonlinear cycles scaled %.3fx, want 3x", d.Name, r)
		}
		if r := three.EnergyByClass[model.Nonlinear] / one.EnergyByClass[model.Nonlinear]; math.Abs(r-3) > 1e-9 {
			t.Errorf("%s: Repeat=3 nonlinear energy scaled %.3fx, want 3x", d.Name, r)
		}
	}
}

// TestNoCBandwidthReported: a 4×4 mesh must surface the bandwidth the
// pass needs and the provisioned default it ran against — and the default
// provisioning must sustain every HBM-fed workload (required is capped by
// the 256 GB/s off-chip stream, the paper's "never bottlenecks" claim).
func TestNoCBandwidthReported(t *testing.T) {
	mesh := noc.NewMesh(4, 4)
	r := simulate(arch.Mugi(256), mesh, decode70B())
	if r.NoCRequiredBandwidth <= 0 {
		t.Fatal("4x4 mesh pass reported no required NoC bandwidth")
	}
	if want := mesh.ProvisionedBandwidth(arch.Cost45nm.Frequency); r.NoCBandwidth != want {
		t.Errorf("configured NoC bandwidth %.3g, want provisioned default %.3g", r.NoCBandwidth, want)
	}
	if r.NoCLimited {
		t.Error("default provisioning must sustain the Table-3 workload")
	}
	if r.NoCRequiredBandwidth > HBMBandwidth {
		t.Errorf("required NoC bandwidth %.3g exceeds the HBM stream %.3g", r.NoCRequiredBandwidth, HBMBandwidth)
	}
	single := simulate(arch.Mugi(256), noc.Single, decode70B())
	if single.NoCRequiredBandwidth != 0 || single.NoCBandwidth != 0 || single.NoCLimited {
		t.Error("single node must not report NoC bandwidth")
	}
}

// TestNoCBandwidthFailSafe: when the configured channel bandwidth cannot
// sustain the pass, the simulator must extend the pass to the network
// streaming time instead of silently overreporting throughput.
func TestNoCBandwidthFailSafe(t *testing.T) {
	w := decode70B()
	starved := Simulate(Params{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), NoCBandwidth: 1e9}, w)
	if !starved.NoCLimited {
		t.Fatal("1 GB/s NoC must be flagged as limiting")
	}
	if want := float64(starved.DRAMBytes) / 1e9; starved.Seconds != want {
		t.Errorf("throttled Seconds %.4f, want streaming time %.4f", starved.Seconds, want)
	}
	healthy := Simulate(Params{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4)}, w)
	if starved.TokensPerSecond >= healthy.TokensPerSecond {
		t.Error("starved NoC must lower throughput")
	}
}

// TestClassSumsFixedOrder pins the deterministic summation: the aggregate
// cycle and energy totals must equal the per-class sums taken in fixed
// model.OpClass order, bit for bit, on every run.
func TestClassSumsFixedOrder(t *testing.T) {
	p := Params{Design: arch.Mugi(256), Mesh: noc.NewMesh(2, 2)}
	p.applyDefaults()
	res := Simulate(p, decode70B())
	cycles := 0.0
	for c := range model.OpClass(model.NumOpClasses) {
		cycles += res.CyclesByClass[c]
	}
	if res.TotalCycles != cycles {
		t.Errorf("TotalCycles %v != ordered class sum %v", res.TotalCycles, cycles)
	}
	energy := 0.0
	for c := range model.OpClass(model.NumOpClasses) {
		energy += res.EnergyByClass[c]
	}
	energy += res.DRAMEnergy
	energy += p.Mesh.TransferEnergy(res.DRAMBytes)
	if res.DynamicEnergy != energy {
		t.Errorf("DynamicEnergy %v != ordered sum %v", res.DynamicEnergy, energy)
	}
	// Bit-stability across repeated runs of the same inputs.
	for i := 0; i < 5; i++ {
		again := Simulate(p, decode70B())
		if math.Float64bits(again.TotalCycles) != math.Float64bits(res.TotalCycles) ||
			math.Float64bits(again.DynamicEnergy) != math.Float64bits(res.DynamicEnergy) {
			t.Fatalf("run %d: nondeterministic totals", i)
		}
	}
}

// TestLargestMeshesSimulateFinite runs a decode pass on the largest
// meshes noc.ParseMesh accepts (noc.MaxNodes nodes, square and in one
// row or column) and requires every float of the Result finite and
// non-negative. Larger meshes, whose node count could overflow into a
// negative compute time, are parse errors (noc's TestParseMesh).
func TestLargestMeshesSimulateFinite(t *testing.T) {
	w := model.Llama2_7B.DecodeOps(1, 1024)
	for _, s := range []string{"1024x1024", "1x1048576", "1048576x1"} {
		m, err := noc.ParseMesh(s)
		if err != nil {
			t.Fatalf("ParseMesh(%q): %v", s, err)
		}
		r := Simulate(Params{Design: arch.Mugi(256), Mesh: m}, w)
		var walk func(name string, v reflect.Value)
		walk = func(name string, v reflect.Value) {
			switch v.Kind() {
			case reflect.Float64:
				if f := v.Float(); math.IsNaN(f) || math.IsInf(f, 0) || f < 0 {
					t.Errorf("%s: %s = %v", s, name, f)
				}
			case reflect.Int64:
				if v.Int() < 0 {
					t.Errorf("%s: %s = %d", s, name, v.Int())
				}
			case reflect.Array:
				for i := 0; i < v.Len(); i++ {
					walk(fmt.Sprintf("%s[%d]", name, i), v.Index(i))
				}
			case reflect.Struct:
				for i := 0; i < v.NumField(); i++ {
					walk(name+"."+v.Type().Field(i).Name, v.Field(i))
				}
			}
		}
		walk("Result", reflect.ValueOf(r))
		if r.ComputeSeconds <= 0 || r.Seconds <= 0 {
			t.Errorf("%s: compute %v s, pass %v s", s, r.ComputeSeconds, r.Seconds)
		}
	}
}
