package core

import (
	"fmt"
	"math"

	"mugi/internal/numerics"
)

// OnlineWindow is the online approximation mechanism the paper sketches as
// future work (§7.1): instead of a per-mapping max-pinned window or an
// offline-tuned one, it maintains an exponentially decayed exponent
// histogram across batches and re-slides the window to the current mass —
// adapting to runtime distribution drift in the KV cache and FFN.
type OnlineWindow struct {
	a     *Approx
	decay float64
	hist  map[int]float64
}

// NewOnlineWindow wraps an approximator with drift tracking. decay in
// (0, 1) is the per-batch retention of the old histogram (e.g. 0.9).
func NewOnlineWindow(a *Approx, decay float64) *OnlineWindow {
	if decay <= 0 || decay >= 1 {
		panic(fmt.Sprintf("core: online decay %v outside (0,1)", decay))
	}
	return &OnlineWindow{a: a, decay: decay, hist: map[int]float64{}}
}

// Observe folds one batch's exponent distribution into the decayed
// histogram and re-selects the sliding window to cover the current mass.
func (o *OnlineWindow) Observe(xs []float64) {
	for e := range o.hist {
		o.hist[e] *= o.decay
	}
	cfg := o.a.Config()
	w := 1 - o.decay
	for _, x := range xs {
		f := numerics.Split(float32(x), cfg.ManBits)
		if f.Class != numerics.ClassNormal {
			continue
		}
		e := f.Exp
		if e < cfg.LUTEMin {
			e = cfg.LUTEMin
		}
		if e > cfg.LUTEMax {
			e = cfg.LUTEMax
		}
		o.hist[e] += w
	}
	bestLo, bestMass := cfg.LUTEMin, math.Inf(-1)
	for lo := cfg.LUTEMin; lo+cfg.WindowWidth-1 <= cfg.LUTEMax; lo++ {
		m := 0.0
		for e := lo; e < lo+cfg.WindowWidth; e++ {
			m += o.hist[e]
		}
		if m > bestMass {
			bestLo, bestMass = lo, m
		}
	}
	o.a.SetWindow(bestLo)
}

// Eval observes the batch, then evaluates it with the adapted window.
func (o *OnlineWindow) Eval(dst, xs []float64) {
	if len(dst) != len(xs) {
		panic("core: OnlineWindow Eval length mismatch")
	}
	o.Observe(xs)
	for i, x := range xs {
		dst[i] = o.a.Approx(x)
	}
}
