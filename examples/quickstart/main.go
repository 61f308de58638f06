// Quickstart: the two halves of VLP in a dozen lines each — nonlinear
// approximation (softmax via a sliding-window LUT with temporal
// subscription) and multiplier-free BF16-INT4 GEMM.
package main

import (
	"fmt"
	"math/rand"

	"mugi"
)

func main() {
	// --- VLP softmax ---------------------------------------------------
	// Build a VLP exp approximator: 3-bit rounded mantissa (default), a
	// LUT storing exponents [-6, 5], and an 8-wide sliding window.
	ap := mugi.NewApprox(mugi.ApproxConfig{Op: mugi.Exp, LUTEMin: -6, LUTEMax: 5})

	logits := []float64{2.1, -0.3, 0.8, -1.7, 3.0, 0.1, -2.2, 1.4}
	vlp := make([]float64, len(logits))
	ap.Softmax(vlp, logits) // the E-proc pins the window to the max-subtracted row
	exact := make([]float64, len(logits))
	mugi.SoftmaxExact(exact, logits)

	fmt.Println("softmax      VLP        exact")
	for i := range logits {
		fmt.Printf("x=%5.1f  %9.6f  %9.6f\n", logits[i], vlp[i], exact[i])
	}
	lo, hi := ap.Window()
	fmt.Printf("sliding window covered exponents [%d, %d]\n\n", lo, hi)

	// --- VLP GEMM ------------------------------------------------------
	// A weight-only-quantized GEMM: BF16 activations (a GQA query group of
	// 8) against INT4 weights, mapped with weights on the rows so every
	// reduction step costs one 8-cycle temporal window.
	rng := rand.New(rand.NewSource(7))
	acts := mugi.NewMatrix(8, 128) // 8 query tokens × 128 features
	for i := range acts.Data {
		acts.Data[i] = float32(rng.NormFloat64())
	}
	weights := mugi.NewMatrix(128, 256)
	for i := range weights.Data {
		weights.Data[i] = float32(rng.NormFloat64() * 0.25)
	}
	wq := mugi.QuantizeWeights(weights, 4, 64)

	out, stats := mugi.Multiply(mugi.GEMMConfig{Rows: 128, Cols: 8, Mapping: mugi.MappingMugi}, acts, wq)
	fmt.Printf("GEMM %dx%dx%d on a 128x8 VLP array:\n", acts.Rows, acts.Cols, wq.Cols)
	fmt.Printf("  cycles       %d (temporal window %d)\n", stats.Cycles, stats.WindowCycles)
	fmt.Printf("  utilization  %.0f%%\n", stats.Utilization*100)
	fmt.Printf("  eff. rate    %.0f MACs/cycle\n", stats.EffectiveMACsPerCycle())
	fmt.Printf("  out[0][0..3] %v\n", out.Data[:4])
}
