package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mugi/internal/nonlinear"
	"mugi/internal/tensor"
)

// multiplySeedRef is the seed Multiply kernel (the (i, j, k) walk with
// per-output group accumulators), with two changes that keep its bits:
// it reads the group-major Scales, and it converts each rescaled group sum
// with float64(...) so no architecture fuses it into the addition. The
// optimized blocked kernel must reproduce it bit-for-bit.
func multiplySeedRef(a *tensor.Matrix, wq QuantMatrix) *tensor.Matrix {
	m, k, n := a.Rows, a.Cols, wq.Cols
	out := tensor.NewMatrix(m, n)
	scale := func(j, g int) float64 {
		if wq.SharedScales {
			return float64(wq.Scales[g])
		}
		return float64(wq.Scales[g*n+j])
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			acc := 0.0
			gAcc := 0.0
			curG := 0
			for kk := 0; kk < k; kk++ {
				if g := kk / wq.GroupSize; g != curG {
					acc += float64(gAcc * scale(j, curG))
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
			acc += float64(gAcc * scale(j, curG))
			out.Set(i, j, float32(acc))
		}
	}
	return out
}

// hostAVX records whether package init selected addRows4's AVX kernel.
var hostAVX = useAVX

// withBothKernels runs body with addRows4's Go loop, then again with its
// AVX kernel as the subtest "avx". On a host without AVX it logs that and
// skips the second run.
func withBothKernels(t *testing.T, body func(t *testing.T)) {
	t.Helper()
	defer func(saved bool) { useAVX = saved }(useAVX)
	useAVX = false
	body(t)
	if !hostAVX {
		t.Log("no AVX on this host: the assembly kernel was not run")
		return
	}
	useAVX = true
	t.Run("avx", body)
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
	withBothKernels(t, testMultiplyMatchesSeedReference)
}

func testMultiplyMatchesSeedReference(t *testing.T) {
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
	// The layouts the decoder reads: one-row groups with shared (value
	// cache) and per-column scales, groups that leave 1 to 3 rows after
	// whole four-row passes, strided key views, and ±0 activations against
	// zero codes, whose products are signed zeros. Sums of INT4 products
	// of similar magnitude are exact in float64, so the cancel rows draw
	// activations from ±1 and ±2^60, codes from ±1 and scales from 1 and
	// 2: a small product added while the sum holds a large one is lost,
	// and the large ones often cancel, so another addition order gives
	// other bits.
	type seedCase struct {
		name        string
		m, k, n, gs int
		shared      bool
		stride      int
		signedZeros bool
		cancel      bool
		cfg         GEMMConfig
	}
	cases := []seedCase{
		{name: "cancel-gs1-shared", m: 4, k: 14, n: 64, gs: 1, shared: true, cancel: true},
		{name: "cancel-gs1-percol", m: 4, k: 13, n: 64, gs: 1, cancel: true},
		{name: "cancel-gs7", m: 4, k: 7, n: 64, gs: 7, cancel: true},
		{name: "cancel-gs6", m: 4, k: 30, n: 64, gs: 6, cancel: true},
		{name: "cancel-gs64", m: 2, k: 128, n: 64, gs: 64, cancel: true},
		{name: "cancel-key-view", m: 8, k: 16, n: 40, gs: 16, stride: 64, cancel: true},
		{name: "cancel-key-view-rest3", m: 8, k: 11, n: 40, gs: 11, stride: 48, cancel: true},
		{name: "gs1-shared", m: 1, k: 37, n: 16, gs: 1, shared: true},
		{name: "gs1-shared-m9", m: 9, k: 64, n: 5, gs: 1, shared: true},
		{name: "gs1-shared-ctx256", m: 1, k: 256, n: 16, gs: 1, shared: true},
		{name: "gs1-percol", m: 3, k: 20, n: 11, gs: 1},
		{name: "gs2", m: 2, k: 9, n: 7, gs: 2},
		{name: "gs3", m: 4, k: 10, n: 6, gs: 3, shared: true},
		{name: "gs5-rest1", m: 2, k: 23, n: 13, gs: 5},
		{name: "gs6-rest2", m: 7, k: 30, n: 9, gs: 6},
		{name: "gs7-rest3", m: 1, k: 33, n: 21, gs: 7},
		{name: "gs64", m: 1, k: 256, n: 128, gs: 64},
		{name: "key-view", m: 1, k: 16, n: 37, gs: 16, stride: 64},
		{name: "key-view-m8", m: 8, k: 16, n: 200, gs: 16, stride: 256},
		{name: "key-view-rest3", m: 9, k: 11, n: 5, gs: 11, stride: 9},
		{name: "signed-zeros-gs1", m: 3, k: 40, n: 16, gs: 1, shared: true, signedZeros: true},
		{name: "signed-zeros-gs1-percol", m: 2, k: 12, n: 8, gs: 1, signedZeros: true},
		{name: "signed-zeros-gs6", m: 5, k: 27, n: 10, gs: 6, signedZeros: true},
		{name: "signed-zeros-key-view", m: 2, k: 16, n: 19, gs: 16, stride: 32, signedZeros: true},
		{name: "carat-gs1-shared", m: 4, k: 50, n: 16, gs: 1, shared: true,
			cfg: GEMMConfig{Rows: 16, Cols: 4, Mapping: MappingCaratBF16}},
	}
	// Every layout again at M = 4, 5, 7 and 8, the row counts of a GQA
	// group's attention GEMMs. The gs rows leave 0 to 3 code rows after a
	// group's whole four-row passes.
	for _, m := range []int{4, 5, 7, 8} {
		for _, l := range []seedCase{
			{name: "gs1-shared", k: 37, n: 16, gs: 1, shared: true},
			{name: "gs1-percol", k: 21, n: 11, gs: 1},
			{name: "gs4-rest0", k: 24, n: 9, gs: 4},
			{name: "gs5-rest1", k: 23, n: 13, gs: 5},
			{name: "gs6-rest2", k: 30, n: 9, gs: 6, shared: true},
			{name: "gs7-rest3", k: 33, n: 21, gs: 7},
			{name: "key-view", k: 16, n: 37, gs: 16, stride: 64},
			{name: "key-view-rest3", k: 11, n: 5, gs: 11, stride: 9},
			{name: "signed-zeros-gs1", k: 40, n: 16, gs: 1, shared: true, signedZeros: true},
			{name: "signed-zeros-gs1-percol", k: 12, n: 8, gs: 1, signedZeros: true},
			{name: "signed-zeros-gs6", k: 27, n: 10, gs: 6, signedZeros: true},
			{name: "signed-zeros-key-view", k: 16, n: 19, gs: 16, stride: 32, signedZeros: true},
			{name: "cancel-gs1-shared", k: 14, n: 64, gs: 1, shared: true, cancel: true},
			{name: "cancel-gs1-percol", k: 13, n: 64, gs: 1, cancel: true},
			{name: "cancel-gs6", k: 30, n: 64, gs: 6, cancel: true},
			{name: "cancel-key-view-rest3", k: 11, n: 40, gs: 11, stride: 48, cancel: true},
		} {
			l.m, l.name = m, fmt.Sprintf("m%d-%s", m, l.name)
			cases = append(cases, l)
		}
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a := tensor.RandNormal(rng, tc.m, tc.k, 1)
			q := randQuant(rng, tc.k, tc.n, tc.gs, tc.shared, tc.stride, tc.signedZeros)
			if tc.cancel {
				for i := range q.Codes {
					q.Codes[i] = int8(1 - 2*rng.Intn(2))
				}
				for i := range a.Data {
					a.Data[i] = float32(math.Ldexp(float64(1-2*rng.Intn(2)), 60*rng.Intn(2)))
				}
				for i := range q.Scales {
					q.Scales[i] = float32(1 + rng.Intn(2))
				}
			}
			if tc.signedZeros {
				// Row 0 is all −0 and code column 0 all zero, so those
				// outputs sum nothing but signed zeros.
				negZero := float32(math.Copysign(0, -1))
				for i := range a.Data {
					switch {
					case i < tc.k || rng.Intn(4) == 0:
						a.Data[i] = negZero
					case rng.Intn(3) == 0:
						a.Data[i] = 0
					}
				}
				for kk := 0; kk < tc.k; kk++ {
					q.Codes[kk*q.stride()] = 0
				}
			}
			cfg := tc.cfg
			if cfg.Rows == 0 {
				cfg = GEMMConfig{Rows: 128, Cols: 8, Mapping: MappingMugi}
			}
			got, _ := Multiply(cfg, a, q)
			requireBitIdentical(t, got, multiplySeedRef(a, q))
		})
	}
}

// randQuant builds a k×n INT4 code matrix with positive scales, in the
// shared (value cache) or per-column layout, optionally as a view of
// stride columns whose padding holds codes the kernel must not read. With
// zeros, half the codes are 0.
func randQuant(rng *rand.Rand, k, n, gs int, shared bool, stride int, zeros bool) QuantMatrix {
	groups := (k + gs - 1) / gs
	q := QuantMatrix{Rows: k, Cols: n, Bits: 4, GroupSize: gs, SharedScales: shared, Stride: stride}
	width := n
	if stride != 0 {
		width = stride
	}
	q.Codes = make([]int8, k*width)
	for i := range q.Codes {
		q.Codes[i] = int8(rng.Intn(15) - 7)
		if zeros && rng.Intn(2) == 0 {
			q.Codes[i] = 0
		}
	}
	if shared {
		q.Scales = make([]float32, groups)
	} else {
		q.Scales = make([]float32, n*groups)
	}
	for i := range q.Scales {
		q.Scales[i] = float32(rng.Float64() + 0.05)
	}
	return q
}

func TestMultiplyIntoStrideView(t *testing.T) {
	withBothKernels(t, testMultiplyIntoStrideView)
}

func testMultiplyIntoStrideView(t *testing.T) {
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
	withBothKernels(t, testMultiplySharedScalesView)
}

func testMultiplySharedScalesView(t *testing.T) {
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
	expanded.Scales = make([]float32, k*n)
	for g := 0; g < k; g++ {
		for j := 0; j < n; j++ {
			expanded.Scales[g*n+j] = shared.Scales[g]
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
// queries against 512x512 INT4 weights, group 128), with either kernel.
func TestMultiplyIntoZeroAlloc(t *testing.T) {
	withBothKernels(t, testMultiplyIntoZeroAlloc)
}

func testMultiplyIntoZeroAlloc(t *testing.T) {
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

// TestMultiplyIntoValidatesScales: per-column scales shorter than groups
// × columns panic even when their backing array is long enough to read.
func TestMultiplyIntoValidatesScales(t *testing.T) {
	q := QuantizeWeights(tensor.NewMatrix(8, 3), 4, 4) // 2 groups × 3 columns
	q.Scales = make([]float32, 5, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on short Scales")
		}
	}()
	MultiplyInto(GEMMConfig{Rows: 8, Cols: 8}, tensor.NewMatrix(1, 8), q, tensor.NewMatrix(1, 3), nil)
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

// TestVLPSoftmaxMatchesSeedSelection holds Softmax to softmaxSeedRef
// (checkSoftmaxMatchesRef) on seeded random rows: normal scores from the
// default window at ManBits 3; scores at scales from 2^-30 to 2^40,
// salted with signed zeros, subnormals, infinities and NaNs at random
// positions, at every ManBits and random starting windows; and tie rows,
// a 0 and negative words halfway between two BF16 words, so the shifted
// operands are the ties themselves.
func TestVLPSoftmaxMatchesSeedSelection(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for trial := 0; trial < 25; trial++ {
		xs := make([]float64, 1+rng.Intn(200))
		for i := range xs {
			xs[i] = rng.NormFloat64() * 4
		}
		checkSoftmaxMatchesRef(t, DefaultManBits, 5-DefaultWindowWidth+1, xs)
	}
	specials := []float64{0, math.Copysign(0, -1), 5e-324, -1e-310, math.Inf(1), math.Inf(-1), math.NaN(), 3e38, -3e38}
	rows := 4000
	if testing.Short() {
		rows = 500
	}
	for r := 0; r < rows; r++ {
		xs := make([]float64, 1+rng.Intn(64))
		scale := math.Ldexp(1, rng.Intn(71)-30)
		for i := range xs {
			xs[i] = rng.NormFloat64() * scale
		}
		if rng.Intn(4) == 0 {
			xs[rng.Intn(len(xs))] = specials[rng.Intn(len(specials))]
		}
		checkSoftmaxMatchesRef(t, 1+rng.Intn(8), rng.Intn(20)-14, xs)
	}
	for r := 0; r < rows/4; r++ {
		xs := make([]float64, 2+rng.Intn(32))
		for i := 1; i < len(xs); i++ {
			// Sign 1, a biased exponent in [115, 132], any BF16
			// mantissa, and the dropped half exactly 0x8000.
			bf := 0x8000 | uint32(115+rng.Intn(18))<<7 | uint32(rng.Intn(128))
			xs[i] = float64(math.Float32frombits(bf<<16 | 0x8000))
		}
		checkSoftmaxMatchesRef(t, 1+rng.Intn(8), rng.Intn(20)-14, xs)
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
// ensure within the bound keeps the same backing arrays.
func TestReserveCoversEnsure(t *testing.T) {
	var s GEMMScratch
	s.Reserve(100)
	accBefore, gaccBefore := &s.acc[0], &s.gacc[0]
	for _, n := range []int{100, 80, 1} {
		s.ensure(n)
		if &s.acc[0] != accBefore || &s.gacc[0] != gaccBefore {
			t.Fatalf("ensure(%d) within the reserved bound reallocated", n)
		}
	}
}
