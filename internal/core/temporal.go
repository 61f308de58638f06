// Package core implements the paper's primary contribution: value level
// parallelism (VLP). It provides the temporal-coding primitives (temporal
// converter, value reuse, temporal subscription), the sliding-window LUT
// nonlinear approximation of §3, and the asymmetric small-batch VLP GEMM
// of §4.2, all as functional bit-faithful engines that also report cycle
// counts for the architecture simulator.
package core

import "fmt"

// TemporalConverter (TC) is the equivalence logic of Fig. 2(a): it holds a
// target value and asserts a single spike on the cycle when the shared
// up-counter equals that value.
type TemporalConverter struct {
	target int
	fired  bool
}

// NewTemporalConverter prepares a TC for the given target value, which must
// be non-negative (the sign travels separately to the PP/SC blocks). No
// production code calls it: it serves the references ApproxTemporal,
// SimulateArrayGEMM and MultiplyViaSubscription.
func NewTemporalConverter(target int) *TemporalConverter {
	if target < 0 {
		panic(fmt.Sprintf("core: TC target %d < 0", target))
	}
	return &TemporalConverter{target: target}
}

// Step advances one cycle with the shared counter value and reports whether
// the spike fires this cycle. A TC fires exactly once per coding window. No
// production code calls it: it serves the same references as
// NewTemporalConverter.
func (tc *TemporalConverter) Step(counter int) bool {
	if !tc.fired && counter == tc.target {
		tc.fired = true
		return true
	}
	return false
}

// WindowCycles is the temporal window length for an n-bit magnitude: 2^n
// cycles (paper §2.1: latency grows exponentially with bitwidth, which is
// why VLP stays at small widths).
func WindowCycles(bits int) int {
	if bits < 0 || bits > 16 {
		panic(fmt.Sprintf("core: window bits %d out of range", bits))
	}
	return 1 << bits
}

// Accumulator models the ACC of Fig. 2(b-d): it adds a shared addend every
// cycle so that after t cycles it holds t×addend; a subscription at cycle t
// therefore reads the product t×addend without a multiplier.
type Accumulator struct {
	addend float64
	value  float64
}

// NewAccumulator prepares an accumulator for one coding window. No
// production code calls it: it serves the references SimulateArrayGEMM and
// MultiplyViaSubscription.
func NewAccumulator(addend float64) *Accumulator {
	return &Accumulator{addend: addend}
}

// Step advances one cycle, accumulating the addend, and returns the running
// value *before* this cycle's addition — the value a subscription at this
// cycle captures. At cycle t the captured value is t×addend. No
// production code calls it: it serves the same references as
// NewAccumulator.
func (a *Accumulator) Step() float64 {
	v := a.value
	a.value += a.addend
	return v
}

// MultiplyViaSubscription computes mag×w purely with the temporal
// machinery: a TC coding mag subscribes the accumulation of w. It is the
// single-PE kernel of Fig. 2(d). No production code calls it: it stays as
// the ground truth that this package's tests hold the array engines to.
// mag must fit in the window (mag < 2^bits).
func MultiplyViaSubscription(mag int, w float64, bits int) float64 {
	window := WindowCycles(bits)
	if mag >= window {
		panic(fmt.Sprintf("core: magnitude %d exceeds %d-bit window", mag, bits))
	}
	tc := NewTemporalConverter(mag)
	acc := NewAccumulator(w)
	var captured float64
	for c := 0; c < window; c++ {
		v := acc.Step()
		if tc.Step(c) {
			captured = v
		}
	}
	return captured
}
