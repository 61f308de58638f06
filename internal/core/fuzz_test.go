package core

import (
	"bytes"
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

// FuzzAddRows4MatchesGo holds addRows4's AVX kernel to its Go loop,
// addRows4Go, bit for bit (NaNs compared by class), over raw float64 bits
// for the four weights and the starting sums, raw code bytes over the
// whole int8 range, n from 0 to 70 (every tail length after whole
// four-column steps), strides of n to n+7 and code offsets of 0 to 4. A
// second pass adds onto the first pass's sums, and the kernel must leave
// the sums' backing array past n untouched. The corpus seeds ±0,
// subnormals, ±Inf, NaN and the largest finite float64 as weights.
func FuzzAddRows4MatchesGo(f *testing.F) {
	bits := math.Float64bits
	codes := make([]byte, 256)
	for i := range codes {
		codes[i] = byte(i * 37)
	}
	for i, w := range []float64{
		0, math.Copysign(0, -1), 5e-324, -2.2250738585072009e-308,
		math.Inf(1), math.Inf(-1), math.NaN(), math.MaxFloat64, -math.MaxFloat64,
	} {
		for _, n := range []uint8{0, 1, 3, 4, 5, 16, 70} {
			f.Add(bits(w), bits(0.75), bits(-3), bits(1e-300), bits(float64(i)-2), n, uint8(i), uint8(n), codes)
		}
	}
	// One row weighs 1/3 and the others 0, every code is 3 and every sum
	// starts at -1: the product 3·(1/3) rounds to 1, so the sum becomes 0,
	// but a fused multiply-add in that row, vector or tail, keeps the
	// product's -2^-54 error.
	threes := bytes.Repeat([]byte{3}, 8)
	for r := 0; r < 4; r++ {
		var w [4]float64
		w[r] = 1.0 / 3
		for _, n := range []uint8{3, 5} {
			f.Add(bits(w[0]), bits(w[1]), bits(w[2]), bits(w[3]), bits(-1), n, uint8(0), uint8(0), threes)
		}
	}
	// n is n8 % 71, the stride n + pad%8, the offset off%5.
	f.Fuzz(func(t *testing.T, w0, w1, w2, w3, acc uint64, n8, pad, off uint8, raw []byte) {
		if !useAVX {
			t.Skip("no AVX on this host: the assembly kernel cannot run")
		}
		n := int(n8) % 71
		stride := n + int(pad)%8
		o := int(off) % 5
		// The last code the kernel may read is the slice's last element.
		cs := make([]int8, o+3*stride+n)
		for i := range cs {
			if len(raw) > 0 {
				cs[i] = int8(raw[i%len(raw)])
			}
		}
		ws := [4]float64{math.Float64frombits(w0), math.Float64frombits(w1), math.Float64frombits(w2), math.Float64frombits(w3)}
		const guard = 4
		got := make([]float64, n+guard)
		want := make([]float64, n)
		for j := range got {
			got[j] = math.Float64frombits(acc)
		}
		copy(want, got)
		sentinel := got[n:]
		for pass := 0; pass < 2; pass++ {
			addRows4(got[:n], cs, o, stride, ws[0], ws[1], ws[2], ws[3])
			addRows4Go(want, cs, o, stride, ws[0], ws[1], ws[2], ws[3])
			for j := range want {
				if math.IsNaN(got[j]) && math.IsNaN(want[j]) {
					continue
				}
				if bits(got[j]) != bits(want[j]) {
					t.Fatalf("pass %d, n %d, stride %d, column %d: kernel %v (%#x), Go loop %v (%#x)",
						pass, n, stride, j, got[j], bits(got[j]), want[j], bits(want[j]))
				}
			}
			for j, v := range sentinel {
				if bits(v) != acc {
					t.Fatalf("pass %d, n %d: kernel wrote s[%d] past the end", pass, n, n+j)
				}
			}
		}
	})
}
