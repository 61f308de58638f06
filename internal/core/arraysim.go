package core

import (
	"fmt"

	"mugi/internal/tensor"
)

// ArrayGEMMResult is the outcome of the literal cycle-by-cycle array walk.
type ArrayGEMMResult struct {
	// Out is the product matrix.
	Out *tensor.Matrix
	// Cycles is the number of cycles the walk actually stepped.
	Cycles int
	// Subscriptions counts temporal-spike captures (one per useful MAC).
	Subscriptions int
}

// SimulateArrayGEMM executes C = A × Wq by stepping the H×W VLP array
// cycle by cycle under the Mugi transposed mapping: for each output tile
// and each reduction step, the per-row temporal converters code the INT4
// weight magnitudes, the per-column accumulators add the BF16 activations
// every cycle, and each PE captures its product on its row's spike with
// the sign applied by the SC XOR. No production code calls it: it stays
// as the reference this package's tests hold two things to: PlanCycles,
// whose analytic cycle count the walk must equal exactly, and Multiply,
// whose outputs it must reproduce.
//
// The walk is O(cycles × H × W); use it on test-sized problems only.
func SimulateArrayGEMM(cfg GEMMConfig, a *tensor.Matrix, wq QuantMatrix) ArrayGEMMResult {
	cfg.validate()
	if cfg.Mapping != MappingMugi {
		panic("core: SimulateArrayGEMM supports the Mugi mapping only")
	}
	if a.Cols != wq.Rows {
		panic(fmt.Sprintf("core: GEMM shapes %dx%d · %dx%d", a.Rows, a.Cols, wq.Rows, wq.Cols))
	}
	m, k, n := a.Rows, a.Cols, wq.Cols
	window := WindowCycles(wq.Bits - 1)

	res := ArrayGEMMResult{Out: tensor.NewMatrix(m, n)}
	// acc[i][j] accumulates the unscaled group partial sums per output.
	partial := make([][]float64, m)
	for i := range partial {
		partial[i] = make([]float64, n)
	}
	flushGroup := func(g int) {
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				res.Out.Data[i*n+j] += float32(partial[i][j] * float64(wq.Scales[g*n+j]))
				partial[i][j] = 0
			}
		}
	}

	tilesN := ceilDiv(n, cfg.Rows)
	tilesM := ceilDiv(m, cfg.Cols)
	for tn := 0; tn < tilesN; tn++ {
		for tm := 0; tm < tilesM; tm++ {
			curG := 0
			for kk := 0; kk < k; kk++ {
				if g := kk / wq.GroupSize; g != curG {
					flushGroup(curG)
					curG = g
				}
				// One temporal window: rows hold weight codes wq[kk, tn*H+r],
				// columns accumulate activations a[tm*W+c, kk].
				rows := min(cfg.Rows, n-tn*cfg.Rows)
				cols := min(cfg.Cols, m-tm*cfg.Cols)
				tcs := make([]*TemporalConverter, rows)
				signs := make([]bool, rows)
				for r := 0; r < rows; r++ {
					code := int(wq.Code(kk, tn*cfg.Rows+r))
					mag := code
					if mag < 0 {
						mag = -mag
					}
					tcs[r] = NewTemporalConverter(mag)
					signs[r] = code < 0
				}
				accs := make([]*Accumulator, cols)
				for c := 0; c < cols; c++ {
					accs[c] = NewAccumulator(float64(a.At(tm*cfg.Cols+c, kk)))
				}
				for cyc := 0; cyc < window; cyc++ {
					vals := make([]float64, cols)
					for c := 0; c < cols; c++ {
						vals[c] = accs[c].Step()
					}
					res.Cycles++
					for r := 0; r < rows; r++ {
						if !tcs[r].Step(cyc) {
							continue
						}
						for c := 0; c < cols; c++ {
							p := vals[c]
							if signs[r] {
								p = -p
							}
							partial[tm*cfg.Cols+c][tn*cfg.Rows+r] += p
							res.Subscriptions++
						}
					}
				}
				// Padded tile slots still burn the window cycles; account
				// for them so the walk matches the analytic model.
			}
			flushGroup(curG)
		}
	}
	return res
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
