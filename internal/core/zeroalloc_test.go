package core

import (
	"math"
	"math/rand"
	"testing"

	"mugi/internal/nonlinear"
	"mugi/internal/tensor"
)

// multiplySeedRef is a verbatim copy of the seed Multiply kernel (the
// (i, j, k) walk with per-output group accumulators). The optimized
// blocked kernel must reproduce it bit-for-bit.
func multiplySeedRef(a *tensor.Matrix, wq QuantMatrix) *tensor.Matrix {
	m, k, n := a.Rows, a.Cols, wq.Cols
	out := tensor.NewMatrix(m, n)
	groups := (k + wq.GroupSize - 1) / wq.GroupSize
	scale := func(j, g int) float64 {
		if wq.SharedScales {
			return float64(wq.Scales[g])
		}
		return float64(wq.Scales[j*groups+g])
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			gAcc := 0.0
			curG := 0
			for kk := 0; kk < k; kk++ {
				if g := kk / wq.GroupSize; g != curG {
					acc += gAcc * scale(j, curG)
					gAcc, curG = 0, g
				}
				code := int(wq.Code(kk, j))
				mag := code
				if mag < 0 {
					mag = -mag
				}
				prod := float64(mag) * float64(a.At(i, kk))
				if code < 0 {
					prod = -prod
				}
				gAcc += prod
			}
			acc += gAcc * scale(j, curG)
			out.Set(i, j, float32(acc))
		}
	}
	return out
}

func requireBitIdentical(t *testing.T, got, want *tensor.Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("shape %dx%d vs %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("element %d: %v != %v (bit mismatch)", i, got.Data[i], want.Data[i])
		}
	}
}

func TestMultiplyMatchesSeedReference(t *testing.T) {
	// The blocked kernel must be bit-identical to the seed's (i, j, k)
	// walk across shapes, group sizes, and both functional mappings.
	rng := rand.New(rand.NewSource(11))
	cfgs := []GEMMConfig{
		{Rows: 32, Cols: 8, Mapping: MappingMugi},
		{Rows: 16, Cols: 4, Mapping: MappingCaratBF16},
	}
	for trial := 0; trial < 30; trial++ {
		m := 1 + rng.Intn(9)
		k := 1 + rng.Intn(100)
		n := 1 + rng.Intn(50)
		gs := 1 + rng.Intn(k)
		a := tensor.RandNormal(rng, m, k, 1)
		w := tensor.RandNormal(rng, k, n, 0.4)
		q := QuantizeWeights(w, 4, gs)
		cfg := cfgs[trial%len(cfgs)]
		got, _ := Multiply(cfg, a, q)
		requireBitIdentical(t, got, multiplySeedRef(a, q))
	}
}

func TestMultiplyIntoStrideView(t *testing.T) {
	// A strided view over a larger code backing (the KV-cache key plane
	// layout) must multiply identically to the compact matrix.
	rng := rand.New(rand.NewSource(12))
	k, n, stride := 16, 10, 24
	a := tensor.RandNormal(rng, 3, k, 1)
	w := tensor.RandNormal(rng, k, n, 0.5)
	q := QuantizeWeights(w, 4, k)
	backing := make([]int8, k*stride)
	for kk := 0; kk < k; kk++ {
		copy(backing[kk*stride:kk*stride+n], q.Codes[kk*n:(kk+1)*n])
	}
	view := q
	view.Codes = backing
	view.Stride = stride
	cfg := GEMMConfig{Rows: 16, Cols: 8, Mapping: MappingMugi}
	got, gotStats := Multiply(cfg, a, view)
	want, wantStats := Multiply(cfg, a, q)
	requireBitIdentical(t, got, want)
	if gotStats != wantStats {
		t.Fatalf("stats %+v != %+v", gotStats, wantStats)
	}
}

func TestMultiplySharedScalesView(t *testing.T) {
	// SharedScales (one scale per K-group for every column — the KVQ
	// value-cache layout) must match the expanded per-column layout.
	rng := rand.New(rand.NewSource(13))
	k, n := 12, 7
	a := tensor.RandNormal(rng, 2, k, 1)
	shared := QuantMatrix{
		Rows: k, Cols: n, Bits: 4, GroupSize: 1, SharedScales: true,
		Codes:  make([]int8, k*n),
		Scales: make([]float32, k),
	}
	for i := range shared.Codes {
		shared.Codes[i] = int8(rng.Intn(15) - 7)
	}
	for g := range shared.Scales {
		shared.Scales[g] = float32(rng.Float64() + 0.1)
	}
	expanded := shared
	expanded.SharedScales = false
	expanded.Scales = make([]float32, n*k)
	for j := 0; j < n; j++ {
		for g := 0; g < k; g++ {
			expanded.Scales[j*k+g] = shared.Scales[g]
		}
	}
	cfg := GEMMConfig{Rows: 16, Cols: 8, Mapping: MappingMugi}
	got, _ := Multiply(cfg, a, shared)
	want, _ := Multiply(cfg, a, expanded)
	requireBitIdentical(t, got, want)
	// The accessor view must agree too.
	for kk := 0; kk < k; kk++ {
		for j := 0; j < n; j++ {
			if shared.Scale(kk, j) != expanded.Scale(kk, j) {
				t.Fatalf("Scale(%d,%d) mismatch", kk, j)
			}
		}
	}
}

// TestMultiplyIntoZeroAlloc asserts a warmed MultiplyInto allocates
// nothing, on a small GEMM and on BenchmarkVLPGEMM's shape (8x512 BF16
// queries against 512x512 INT4 weights, group 128).
func TestMultiplyIntoZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name           string
		m, k, n, group int
		rows           int
	}{
		{"8x128x64", 8, 128, 64, 32, 64},
		{"8x512x512", 8, 512, 512, 128, 128},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(14))
			a := tensor.RandNormal(rng, tc.m, tc.k, 1)
			w := tensor.RandNormal(rng, tc.k, tc.n, 0.3)
			q := QuantizeWeights(w, 4, tc.group)
			cfg := GEMMConfig{Rows: tc.rows, Cols: 8, Mapping: MappingMugi}
			out := tensor.NewMatrix(tc.m, tc.n)
			var scratch GEMMScratch
			MultiplyInto(cfg, a, q, out, &scratch) // warm the scratch
			allocs := testing.AllocsPerRun(50, func() {
				MultiplyInto(cfg, a, q, out, &scratch)
			})
			if allocs != 0 {
				t.Fatalf("warmed MultiplyInto allocated %v times per run", allocs)
			}
		})
	}
}

func TestMultiplyIntoValidatesOut(t *testing.T) {
	a := tensor.NewMatrix(2, 4)
	q := QuantizeWeights(tensor.NewMatrix(4, 3), 4, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mis-sized out")
		}
	}()
	MultiplyInto(GEMMConfig{Rows: 8, Cols: 8}, a, q, tensor.NewMatrix(2, 2), nil)
}

func TestApproxSliceMatchesApprox(t *testing.T) {
	a := New(Config{Op: nonlinear.Exp, LUTEMin: -8, LUTEMax: 4})
	rng := rand.New(rand.NewSource(15))
	xs := make([]float64, 256)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 3
	}
	dst := make([]float64, len(xs))
	a.ApproxSlice(dst, xs)
	for i, x := range xs {
		if want := a.Approx(x); dst[i] != want && !(math.IsNaN(dst[i]) && math.IsNaN(want)) {
			t.Fatalf("element %d: %v != %v", i, dst[i], want)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected length-mismatch panic")
		}
	}()
	a.ApproxSlice(dst[:1], xs)
}

// softmaxSeedRef replicates the seed Softmax: materialize the shifted
// operands, run SelectWindowMax on them, then the shared softmax kernel.
func softmaxSeedRef(a *Approx, dst, xs []float64) []float64 {
	if len(xs) > 0 {
		max := xs[0]
		for _, v := range xs[1:] {
			if v > max {
				max = v
			}
		}
		shifted := make([]float64, len(xs))
		for i, v := range xs {
			shifted[i] = v - max
		}
		a.SelectWindowMax(shifted)
	}
	return nonlinear.Softmax(dst, xs, a.Approx)
}

func TestVLPSoftmaxMatchesSeedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(200)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * 4
		}
		a := New(Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 5})
		b := New(Config{Op: nonlinear.Exp, LUTEMin: -10, LUTEMax: 5})
		got := a.Softmax(make([]float64, n), xs)
		want := softmaxSeedRef(b, make([]float64, n), xs)
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d element %d: %v != %v", trial, i, got[i], want[i])
			}
		}
		alo, _ := a.Window()
		blo, _ := b.Window()
		if alo != blo {
			t.Fatalf("trial %d: window divergence %d vs %d", trial, alo, blo)
		}
	}
}

func TestVLPSoftmaxZeroAlloc(t *testing.T) {
	a := New(Config{Op: nonlinear.Exp, LUTEMin: -8, LUTEMax: 4})
	rng := rand.New(rand.NewSource(17))
	xs := make([]float64, 512)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2
	}
	dst := make([]float64, len(xs))
	a.Softmax(dst, xs)
	allocs := testing.AllocsPerRun(50, func() {
		a.Softmax(dst, xs)
	})
	if allocs != 0 {
		t.Fatalf("VLP softmax allocated %v times per run", allocs)
	}
}

// TestReserveCoversEnsure pins Reserve's contract: after reserving, any
// ensure within the bounds keeps the same backing arrays.
func TestReserveCoversEnsure(t *testing.T) {
	var s GEMMScratch
	s.Reserve(100, 400)
	accBefore, scaleBefore := &s.acc[0], &s.scaleT[0]
	s.ensure(100, 400)
	if &s.acc[0] != accBefore || &s.scaleT[0] != scaleBefore {
		t.Fatal("ensure within reserved bounds reallocated")
	}
	s.ensure(80, 0) // SharedScales path: no scale table demanded
	if &s.acc[0] != accBefore || cap(s.scaleT) < 400 {
		t.Fatal("shared-scales ensure disturbed the reserved buffers")
	}
}
