package core

import (
	"encoding/binary"
	"math"
	"testing"

	"mugi/internal/nonlinear"
)

// rowBytes encodes a score row as the raw little-endian float64 bits
// FuzzSoftmaxMatchesReference decodes.
func rowBytes(xs ...float64) []byte {
	b := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(x))
	}
	return b
}

// checkSoftmaxMatchesRef runs Softmax and softmaxSeedRef on xs with two
// exp approximators of manBits mantissa bits whose window starts at lo,
// and requires the same output bits (NaNs compared by class) and the
// same window afterwards.
func checkSoftmaxMatchesRef(t *testing.T, manBits, lo int, xs []float64) {
	t.Helper()
	cfg := Config{Op: nonlinear.Exp, ManBits: manBits, LUTEMin: -10, LUTEMax: 5}
	a, b := New(cfg), New(cfg)
	a.SetWindow(lo)
	b.SetWindow(lo)
	got := a.Softmax(make([]float64, len(xs)), xs)
	want := softmaxSeedRef(b, make([]float64, len(xs)), xs)
	for i := range got {
		if math.IsNaN(got[i]) && math.IsNaN(want[i]) {
			continue
		}
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("ManBits %d, row %v: element %d is %v, reference %v", manBits, xs, i, got[i], want[i])
		}
	}
	alo, _ := a.Window()
	blo, _ := b.Window()
	if alo != blo {
		t.Fatalf("ManBits %d, row %v: window starts at %d, reference %d", manBits, xs, alo, blo)
	}
}

// FuzzSoftmaxMatchesReference holds (*Approx).Softmax — its window read
// from the row's minimum and its inlined lookup — to the seed's
// SelectWindowMax over the shifted row followed by nonlinear.Softmax,
// over raw float64 rows, ManBits 1 to 8 and any starting window. The
// corpus seeds signed zeros, subnormals, a min − max beyond float32's
// range, infinities, NaN at index 0 and later, and one-element rows.
func FuzzSoftmaxMatchesReference(f *testing.F) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, row := range [][]float64{
		{0.5, -2, 3.25, -8, 1},
		{0, math.Copysign(0, -1)},
		{math.Copysign(0, -1), 0, 1e-300},
		{5e-324, -5e-324, 1e-310, 0},
		{1.2e-38, 0, -1.2e-38},
		{3e38, -3e38, 0},
		{1e300, -1e300, 2},
		{1, inf, 2},
		{-inf, 1, 2},
		{inf, -inf},
		{-inf, -inf},
		{nan, 1, 2},
		{1, nan, -3},
		{-3, 2, nan},
		{1.5},
		{-7},
		{nan},
		{inf},
		{-1e-40},
		{0, -1.00390625, -1.01171875}, // BF16 ties: 1+2^-8 rounds down, 1+3·2^-8 up
	} {
		for _, mb := range []uint8{0, 2, 6, 7} { // ManBits 1, 3, 7 and 8
			f.Add(mb, int8(-6), rowBytes(row...))
		}
	}
	// ManBits is mb%8 + 1; lo is the starting window.
	f.Fuzz(func(t *testing.T, mb uint8, lo int8, raw []byte) {
		n := min(len(raw)/8, 256)
		if n == 0 {
			return
		}
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
		}
		checkSoftmaxMatchesRef(t, int(mb%8)+1, int(lo), xs)
	})
}
