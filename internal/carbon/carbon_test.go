package carbon

import (
	"math"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/sim"
)

func TestOperationalLinear(t *testing.T) {
	if Operational(0) != 0 {
		t.Error("zero energy should emit zero")
	}
	if math.Abs(Operational(3.6e6)-475) > 1e-9 {
		t.Errorf("1 kWh should emit 475 g, got %v", Operational(3.6e6))
	}
	if Operational(2e6) != 2*Operational(1e6) {
		t.Error("operational should be linear")
	}
}

func TestEmbodied(t *testing.T) {
	if EmbodiedTotal(2) != 2*CPA45nm {
		t.Error("embodied total")
	}
	// Full lifetime consumes the full embodied budget.
	if got := EmbodiedAmortized(1, DefaultLifetime, DefaultLifetime); math.Abs(got-CPA45nm) > 1e-9 {
		t.Errorf("full lifetime: %v", got)
	}
}

func TestValidation(t *testing.T) {
	for name, f := range map[string]func(){
		"neg energy":  func() { Operational(-1) },
		"neg area":    func() { EmbodiedTotal(-1) },
		"zero life":   func() { EmbodiedAmortized(1, 1, 0) },
		"neg busy":    func() { EmbodiedAmortized(1, -1, 1) },
		"zero tokens": func() { Footprint{}.PerToken(0) },
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

func TestFootprintHelpers(t *testing.T) {
	f := Footprint{OperationalG: 2, EmbodiedG: 1}
	if f.Total() != 3 {
		t.Error("total")
	}
	p := f.PerToken(2)
	if p.OperationalG != 1 || p.EmbodiedG != 0.5 {
		t.Errorf("per token: %+v", p)
	}
}

// TestMugiReducesCarbon reproduces the paper's headline: Mugi decreases
// operational carbon ~1.45x and embodied carbon ~1.48x vs the systolic
// baseline on LLM workloads (§6.3.2).
func TestMugiReducesCarbon(t *testing.T) {
	w := model.Llama2_70B_GQA.DecodeOps(8, 4096)
	assess := func(d arch.Design) Footprint {
		r := sim.Simulate(sim.Params{Design: d}, w)
		total := r.DynamicEnergy + r.LeakageWatts*r.Seconds
		return Assess(total, d.Area(&arch.Cost45nm).Total(), r.Seconds).PerToken(8)
	}
	mugi := assess(arch.Mugi(256))
	sa := assess(arch.SystolicArray(16, false))

	opRatio := sa.OperationalG / mugi.OperationalG
	if opRatio < 1.2 || opRatio > 3.0 {
		t.Errorf("operational improvement %.2fx, paper 1.45x", opRatio)
	}
	embRatio := sa.EmbodiedG / mugi.EmbodiedG
	if embRatio < 1.2 || embRatio > 2.5 {
		t.Errorf("embodied improvement %.2fx, paper 1.48x", embRatio)
	}
}

// TestOperationalMajorAt45nm checks the Fig. 15 observation that at 45 nm
// operational carbon remains the major contributor.
func TestOperationalMajorAt45nm(t *testing.T) {
	w := model.Llama2_70B_GQA.DecodeOps(8, 4096)
	r := sim.Simulate(sim.Params{Design: arch.Mugi(256), Mesh: noc.Single}, w)
	total := r.DynamicEnergy + r.LeakageWatts*r.Seconds
	f := Assess(total, arch.Mugi(256).Area(&arch.Cost45nm).Total(), r.Seconds)
	if f.OperationalG <= f.EmbodiedG {
		t.Errorf("operational %v should exceed embodied %v at 45nm", f.OperationalG, f.EmbodiedG)
	}
	if f.EmbodiedG <= 0.05*f.OperationalG {
		t.Errorf("embodied %v should be a visible fraction of operational %v", f.EmbodiedG, f.OperationalG)
	}
}
