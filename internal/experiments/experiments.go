// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 accuracy figures and §6 architecture results) from the
// reproduction's simulators. Each experiment returns a Report: a plain-text
// rendering of the same rows/series the paper plots, plus structured data
// the tests assert on. cmd/mugibench and the repository-level benchmarks
// drive this package.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/runner"
	"mugi/internal/sim"
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier ("fig11", "tab3", ...).
	ID string
	// Title describes the paper artifact reproduced.
	Title string

	b strings.Builder
}

// Printf appends a formatted line to the rendering.
func (r *Report) Printf(format string, args ...any) {
	fmt.Fprintf(&r.b, format, args...)
	if !strings.HasSuffix(format, "\n") {
		r.b.WriteByte('\n')
	}
}

// String renders the report.
func (r *Report) String() string {
	return fmt.Sprintf("== %s: %s ==\n%s", r.ID, r.Title, r.b.String())
}

// Entry registers an experiment generator.
type Entry struct {
	ID    string
	Title string
	Run   func() *Report
}

// Registry lists all experiments in paper order.
func Registry() []Entry {
	return []Entry{
		{"fig4", "Input value/exponent distributions", Fig4},
		{"fig6", "Perplexity/loss heatmaps per approximation", Fig6},
		{"fig7", "Per-layer window tuning (Llama-2 proxies)", Fig7},
		{"fig8", "Relative error vs input for best configs", Fig8},
		{"fig11", "Iso-area nonlinear throughput/efficiency", Fig11},
		{"fig12", "Iso-area GEMM comparison (proj/attn/FFN)", Fig12},
		{"tab3", "End-to-end comparison on Llama-2 70B GQA", Table3},
		{"fig13", "Array and NoC area/power breakdown", Fig13},
		{"fig14", "Batch-size sweep: throughput and energy/token", Fig14},
		{"fig15", "Operational and embodied carbon", Fig15},
		{"fig16", "End-to-end latency breakdown", Fig16},
		{"fig17", "NoC-level throughput/efficiency", Fig17},
		{"ablations", "Design-choice ablations (mapping, buffers, window)", Ablations},
		{"moe", "Extension: mixture-of-experts workloads (paper §7.2)", MoE},
		{"online", "Extension: online window adaptation (paper §7.1)", Online},
		{"serve", "Extension: request-level serving under traffic", Serving},
		{"capacity", "Extension: capacity search (max sustained req/s)", Capacity},
		{"fleet", "Extension: fleet planner (TCO + price-performance frontiers)", Fleet},
		{"autoscale", "Extension: online autoscaling with DVFS power states", Autoscale},
		{"faults", "Extension: fault injection and the price of nines", Faults},
		{"overload", "Extension: graceful degradation under overload (flash crowds, retry storms, price of priority)", Overload},
		{"minuteserve", "Extension: MinuteServe price-performance leaderboard (fixed rules, signed artifact)", MinuteServe},
	}
}

// ByID looks up a registered experiment.
func ByID(id string) (Entry, error) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, nil
		}
	}
	return Entry{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// geomean computes the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// simulate is the shared single-run helper: one counted simulator pass
// through the runner. A pass allocates nothing, so generators that revisit
// a (design, mesh, workload) tuple simply simulate it again.
func simulate(d arch.Design, mesh noc.Mesh, w model.Workload) sim.Result {
	return runner.Simulate(sim.Params{Design: d, Mesh: mesh}, w)
}

// llamaGeomeanDecode runs the decode workload on the Llama-2 set and
// geomeans a per-run metric, the aggregation of Figs. 11/14/17.
func llamaGeomeanDecode(d arch.Design, mesh noc.Mesh, batch, seq int,
	metric func(sim.Result, model.Workload) float64) float64 {
	vals := make([]float64, 0, 3)
	for _, m := range model.LlamaModels() {
		w := m.DecodeOps(batch, seq)
		vals = append(vals, metric(simulate(d, mesh, w), w))
	}
	return geomean(vals)
}

// fmtRatio prints a normalized value as "12.3x".
func fmtRatio(v float64) string { return fmt.Sprintf("%.2fx", v) }
