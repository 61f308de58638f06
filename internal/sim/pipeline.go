package sim

import "mugi/internal/arch"

// This file models the double-buffered memory hierarchy of §5.2.1: every
// SRAM/FIFO level is double buffered so tile loads overlap tile computes,
// and the wSRAM/oSRAM widths are provisioned so a full array refill
// completes within one temporal window ("loading ... in 8 cycles"),
// guaranteeing the overlap never exposes load latency.

// SRAMWidths reports the weight- and output-buffer widths (bytes/cycle)
// each design needs so that refilling the array never stalls compute: the
// whole stationary tile must stream in one temporal window (VLP designs)
// or one reduction pass (MAC arrays), and the output tile must drain
// likewise.
func SRAMWidths(d arch.Design) (wBytesPerCycle, oBytesPerCycle float64) {
	switch d.Kind {
	case arch.KindMugi, arch.KindMugiL, arch.KindCarat:
		// Per 8-cycle window the rows consume one INT4 weight each, and
		// the 8 columns each retire one BF16 output per row wave.
		window := 8.0
		wBytesPerCycle = float64(d.Rows) * 0.5 / window
		oBytesPerCycle = float64(d.Rows*d.Cols) * 2 / (window * float64(d.Rows))
	case arch.KindSA, arch.KindSD:
		// Weight-stationary tiles reload Rows×Cols INT4 weights per K-deep
		// pass; outputs drain one row per cycle.
		wBytesPerCycle = float64(d.Rows*d.Cols) * 0.5 / float64(d.Rows)
		oBytesPerCycle = float64(d.Cols) * 2
	case arch.KindTensor:
		// A fully pipelined 8x16x16 block consumes an 16x16 INT4 tile and
		// produces an 8x16 FP16 tile every cycle.
		wBytesPerCycle = float64(d.Cols*d.Depth) * 0.5
		oBytesPerCycle = float64(d.Rows*d.Cols) * 2
	default:
		panic("sim: unknown design kind")
	}
	return wBytesPerCycle, oBytesPerCycle
}

// LoadHidden reports whether the design's provisioned SRAM bandwidth hides
// tile loading behind compute for a K-deep reduction tile: the refill time
// at the provisioned width must not exceed the tile compute time.
func LoadHidden(d arch.Design, k int) bool {
	if k < 1 {
		panic("sim: non-positive reduction depth")
	}
	wWidth, _ := SRAMWidths(d)
	var tileWeightsBytes, computeCycles float64
	switch d.Kind {
	case arch.KindMugi, arch.KindMugiL, arch.KindCarat:
		tileWeightsBytes = float64(d.Rows) * float64(k) * 0.5
		computeCycles = float64(k) * 8
	case arch.KindSA, arch.KindSD:
		tileWeightsBytes = float64(d.Rows*d.Cols) * 0.5
		computeCycles = float64(k)
	case arch.KindTensor:
		tileWeightsBytes = float64(d.Cols*d.Depth) * 0.5 * float64((k+d.Depth-1)/d.Depth)
		computeCycles = float64((k + d.Depth - 1) / d.Depth)
	}
	loadCycles := tileWeightsBytes / wWidth
	return loadCycles <= computeCycles+1e-9
}
