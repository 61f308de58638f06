// carbon-report assesses the operational and embodied carbon of serving
// Llama-2 models on Mugi vs baselines — the paper's sustainability
// argument (§6.3.2, Fig. 15): a shared VLP array cuts both the energy per
// token (operational) and the silicon per token (embodied).
package main

import (
	"fmt"

	"mugi"
)

func main() {
	models := []mugi.ModelConfig{mugi.Llama2_7B, mugi.Llama2_13B, mugi.Llama2_70B_GQA}
	designs := []mugi.Design{
		mugi.NewMugi(256),
		mugi.NewCarat(256),
		mugi.NewSystolicArray(16, false),
		mugi.NewSIMDArray(16, false),
	}
	for _, m := range models {
		w := m.DecodeOps(8, 4096)
		fmt.Printf("-- %s (batch 8, ctx 4096) --\n", m.Name)
		fmt.Printf("%-16s %16s %16s %14s\n",
			"design", "operational g/tok", "embodied g/tok", "total g/tok")
		var saTotal float64
		type row struct {
			name  string
			f     mugi.Footprint
			total float64
		}
		var rows []row
		for _, d := range designs {
			r := mugi.Simulate(mugi.SimParams{Design: d}, w)
			energy := r.DynamicEnergy + r.LeakageWatts*r.Seconds
			f := mugi.AssessCarbon(energy, d.Area(&mugi.Cost45nm).Total(), r.Seconds).
				PerToken(w.TokensPerPass())
			rows = append(rows, row{d.Name, f, f.Total()})
			if d.Name == "SA (16)" {
				saTotal = f.Total()
			}
		}
		for _, rw := range rows {
			fmt.Printf("%-16s %16.3g %16.3g %14.3g\n",
				rw.name, rw.f.OperationalG, rw.f.EmbodiedG, rw.total)
		}
		mugiTotal := rows[0].total
		fmt.Printf("Mugi(256) emits %.2fx less CO2eq per token than SA(16)\n\n", saTotal/mugiTotal)
	}
}
