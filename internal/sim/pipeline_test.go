package sim

import (
	"testing"

	"mugi/internal/arch"
)

func TestSRAMWidthsPositive(t *testing.T) {
	for _, d := range []arch.Design{
		arch.Mugi(128), arch.MugiL(256), arch.Carat(64),
		arch.SystolicArray(16, false), arch.SIMDArray(64, true),
		arch.TensorCore(),
	} {
		w, o := SRAMWidths(d)
		if w <= 0 || o <= 0 {
			t.Errorf("%s: widths %v %v", d.Name, w, o)
		}
	}
}

func TestMugiWeightWidthMatchesWindow(t *testing.T) {
	// Mugi(256): 256 INT4 weights per 8-cycle window = 16 B/cycle.
	w, _ := SRAMWidths(arch.Mugi(256))
	if w != 16 {
		t.Errorf("Mugi(256) weight width %v, want 16 B/cycle", w)
	}
}

func TestLoadHiddenForAllEvaluatedDesigns(t *testing.T) {
	// §5.2.1/§5.2.2: every evaluated configuration provisions SRAM so
	// loading never adds latency at LLM reduction depths.
	for _, d := range []arch.Design{
		arch.Mugi(128), arch.Mugi(256), arch.Carat(256),
		arch.SystolicArray(16, false), arch.SystolicArray(64, false),
		arch.SIMDArray(16, true), arch.TensorCore(),
	} {
		for _, k := range []int{128, 4096, 28672} {
			if !LoadHidden(d, k) {
				t.Errorf("%s: load exposed at K=%d", d.Name, k)
			}
		}
	}
}

func TestLoadHiddenValidates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LoadHidden(arch.Mugi(128), 0)
}
