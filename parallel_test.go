package mugi

import (
	"reflect"
	"strings"
	"testing"

	"mugi/internal/runner"
)

// TestRunExperimentResolvesEveryRegistryID is the regression guard for the
// facade: every registered artifact id must keep resolving and rendering
// through the single-experiment path.
func TestRunExperimentResolvesEveryRegistryID(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry in -short mode")
	}
	for _, e := range Experiments() {
		out, err := RunExperiment(e.ID)
		if err != nil {
			t.Fatalf("RunExperiment(%q): %v", e.ID, err)
		}
		if !strings.HasPrefix(out, "== "+e.ID+": ") {
			t.Errorf("%s: malformed rendering %q", e.ID, out[:min(40, len(out))])
		}
	}
}

func TestRunExperimentsUnknownID(t *testing.T) {
	if _, err := RunExperiments([]string{"tab3", "fig99"}); err == nil {
		t.Fatal("unknown id must fail before any experiment runs")
	}
}

func TestRunExperimentsPreservesRequestOrder(t *testing.T) {
	ids := []string{"fig11", "fig4", "tab3"}
	SetParallelism(4)
	defer SetParallelism(0)
	results, err := RunExperiments(ids)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if results[i].ID != id {
			t.Errorf("results[%d] = %s, want %s", i, results[i].ID, id)
		}
	}
}

// TestRunAllParallelMatchesSerialFacade runs the complete registry through
// RunAll at parallelism 1 and parallelism 8 and demands byte-identical
// renderings — the facade-level spelling of the runner's determinism
// guarantee.
func TestRunAllParallelMatchesSerialFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry in -short mode")
	}
	defer SetParallelism(0)
	SetParallelism(1)
	serial := RunAll()
	SetParallelism(8)
	parallel := RunAll()
	if len(serial) != len(parallel) || len(serial) != len(Experiments()) {
		t.Fatalf("result counts: serial %d, parallel %d, registry %d",
			len(serial), len(parallel), len(Experiments()))
	}
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("%s: parallel rendering diverges from serial", serial[i].ID)
		}
	}
}

// TestServeDeterministicAcrossParallelism is the serving-simulator
// spelling of the same guarantee: one seeded trace driven through Serve
// renders byte-identical reports whether the runner pool has one worker or
// eight.
func TestServeDeterministicAcrossParallelism(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Kind: TraceBursty, Rate: 0.3, Requests: 24, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	cfg := ServeConfig{Model: Llama2_7B, Design: NewMugi(256), Mesh: NewMesh(2, 2)}
	defer runner.SetParallelism(0)
	renderings := make([]string, 2)
	for i, par := range []int{1, 8} {
		runner.SetParallelism(par)
		rep, err := Serve(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		renderings[i] = rep.String()
	}
	if renderings[0] != renderings[1] {
		t.Error("serving report diverges across runner parallelism")
	}
	if tr2, _ := NewTrace(TraceConfig{Kind: TraceBursty, Rate: 0.3, Requests: 24, Seed: 11}); !reflect.DeepEqual(tr2, tr) {
		t.Error("trace generation not deterministic")
	}
}
