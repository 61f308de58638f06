package infer

import (
	"math"
	"math/rand"
	"testing"

	"mugi/internal/nonlinear"
)

// TestGenerateGoldenSeed pins the greedy decode of the seed
// implementation: the zero-allocation refactor (blocked GEMM, zero-copy
// KV views, precomputed RoPE table, scratch softmax) must reproduce the
// exact token stream and logits of the pre-refactor engine, captured
// before any hot-path change landed. The g-prefixed cases pin other GQA
// group sizes g = Heads/KVHeads (testConfig has g = 2), captured before
// the attention ran each KV head's g query heads as one g-row GEMM:
// g = 4 is the benchmark's decoder, g = 8 the paper's GQA group, g = 3
// an odd group, and g = 1 plain multi-head attention.
func TestGenerateGoldenSeed(t *testing.T) {
	cases := []struct {
		name                string
		heads, kvHeads, dim int // zero keeps testConfig's geometry
		ops                 func(nonlinear.Op) Ops
		tokens              []int
		checksum            float64
	}{
		{"exact", 0, 0, 0, ExactOps, []int{2, 23, 25, 31, 8, 13, 23, 25, 31, 8, 13, 36}, -1176.7192811230198},
		{"vlp", 0, 0, 0, VLPOps, []int{2, 23, 25, 31, 8, 13, 23, 25, 31, 8, 13, 36}, -1006.1344034630456},
		{"g4-exact", 8, 2, 64, ExactOps,
			[]int{40, 63, 40, 19, 16, 47, 18, 47, 18, 29, 6, 22}, 4043.4751381851602},
		{"g4-vlp", 8, 2, 64, VLPOps,
			[]int{40, 63, 40, 19, 16, 47, 18, 47, 18, 29, 6, 22}, 4111.4197763158008},
		{"g8-exact", 8, 1, 64, ExactOps,
			[]int{39, 52, 39, 44, 3, 35, 25, 46, 27, 46, 54, 52}, -586.81141976627987},
		{"g8-vlp", 8, 1, 64, VLPOps,
			[]int{39, 28, 29, 5, 39, 28, 31, 19, 39, 28, 31, 28}, -537.37210755964043},
		{"g3-exact", 6, 2, 48, ExactOps,
			[]int{15, 15, 15, 15, 15, 15, 15, 31, 15, 15, 15, 15}, 2239.6174878985621},
		{"g3-vlp", 6, 2, 48, VLPOps,
			[]int{15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15, 15}, 2151.461244377977},
		{"g1-exact", 4, 4, 32, ExactOps,
			[]int{36, 32, 61, 8, 36, 26, 37, 37, 37, 37, 37, 37}, 3036.135019504698},
		{"g1-vlp", 4, 4, 32, VLPOps,
			[]int{36, 49, 11, 1, 57, 17, 32, 32, 32, 32, 32, 32}, 5610.5250714892754},
	}
	prompt := []int{5, 17, 42}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.heads != 0 {
				cfg.Heads, cfg.KVHeads, cfg.Dim = tc.heads, tc.kvHeads, tc.dim
			}
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := tc.ops(cfg.Activation)
			got, err := e.Generate(prompt, 12, ops)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tc.tokens {
				if got[i] != tc.tokens[i] {
					t.Fatalf("token %d: got %v want %v", i, got, tc.tokens)
				}
			}
			// Position-weighted logit checksum over the same step sequence,
			// sensitive to any single-bit logit change.
			e2, _ := New(cfg)
			sum := 0.0
			for _, tok := range append(append([]int{}, prompt...), got...) {
				logits, err := e2.Step(tok, ops)
				if err != nil {
					t.Fatal(err)
				}
				for i, v := range logits {
					sum += v * float64(i+1)
				}
			}
			if sum != tc.checksum {
				t.Fatalf("logit checksum %.17g, want %.17g", sum, tc.checksum)
			}
		})
	}
}

// TestStepZeroAlloc asserts the tentpole property: a warmed Step performs
// zero steady-state allocations under both the exact and the full VLP
// stacks. Allocations are sampled exactly (runs=1, no averaging that
// could truncate sub-1/op rates to zero) at shallow, mid, and deep KV
// contexts, the last samples reaching MaxSeq — an earlier bug allocated
// only once the context outgrew the scale-gather reservation, which an
// averaged shallow sample missed. The g4 and g8 cases (GQA groups of 4
// and 8 query heads per KV head) run the attention as 4- and 8-row
// GEMMs, whose scratch must not grow with the context either.
func TestStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name                string
		heads, kvHeads, dim int // zero keeps testConfig's geometry
		ops                 func(nonlinear.Op) Ops
	}{
		{"exact", 0, 0, 0, ExactOps},
		{"vlp", 0, 0, 0, VLPOps},
		{"g4-exact", 8, 2, 64, ExactOps},
		{"g4-vlp", 8, 2, 64, VLPOps},
		{"g8-exact", 8, 1, 64, ExactOps},
		{"g8-vlp", 8, 1, 64, VLPOps},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			if tc.heads != 0 {
				cfg.Heads, cfg.KVHeads, cfg.Dim = tc.heads, tc.kvHeads, tc.dim
			}
			cfg.MaxSeq = 1024
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := tc.ops(cfg.Activation)
			tok := 0
			step := func() {
				if _, err := e.Step(tok%cfg.Vocab, ops); err != nil {
					t.Fatal(err)
				}
				tok++
			}
			for i := 0; i < 4; i++ { // warm scratch and KV planes
				step()
			}
			// AllocsPerRun(1, step) runs step twice, so the 8 samples after
			// the last depth take 16 steps and end at MaxSeq.
			for _, depth := range []int{8, 300, 900, cfg.MaxSeq - 16} {
				for e.pos < depth {
					step()
				}
				for sample := 0; sample < 8; sample++ {
					if allocs := testing.AllocsPerRun(1, step); allocs != 0 {
						t.Fatalf("step at ctx %d allocated %v times", e.pos, allocs)
					}
				}
			}
			// In-place reset must not allocate either.
			if allocs := testing.AllocsPerRun(1, e.Reset); allocs != 0 {
				t.Fatalf("Reset allocated %v times", allocs)
			}
		})
	}
}

// ropeByTable rotates each len(v)/heads-wide head of v at pos the way
// Step does: one ropeTable of the heads' dimension pairs from the
// precomputed inverse frequencies, then rotateRoPE per head.
func ropeByTable(v []float32, heads, pos int, sinF, cosF func(float64) float64) {
	hd := len(v) / heads
	inv := make([]float64, hd/2)
	for i := 0; i+1 < hd; i += 2 {
		inv[i/2] = math.Pow(10000, -float64(i)/float64(hd))
	}
	sin, cos := make([]float64, len(inv)), make([]float64, len(inv))
	ropeTable(sin, cos, pos, inv, sinF, cosF)
	for h := 0; h < heads; h++ {
		rotateRoPE(v[h*hd:(h+1)*hd], sin, cos)
	}
}

// TestApplyRoPEInvMatchesPow pins Step's RoPE path (ropeByTable: one
// sin/cos table from the precomputed inverse frequencies, shared by every
// head) to the seed's per-head, per-pair math.Pow formulation, applyRoPE,
// bit for bit, under the exact and the VLP sine and cosine, at even and
// odd head widths.
func TestApplyRoPEInvMatchesPow(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vlp := VLPOps(nonlinear.SiLU)
	for _, ops := range []Ops{ExactOps(nonlinear.SiLU), vlp} {
		for _, hd := range []int{2, 4, 5, 8, 16, 30} {
			for pos := 0; pos < 40; pos += 7 {
				const heads = 3
				a := make([]float32, heads*hd)
				for i := range a {
					a[i] = float32(rng.NormFloat64())
				}
				b := append([]float32(nil), a...)
				for h := 0; h < heads; h++ {
					applyRoPE(a[h*hd:(h+1)*hd], pos, ops.Sin, ops.Cos)
				}
				ropeByTable(b, heads, pos, ops.Sin, ops.Cos)
				for i := range a {
					if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
						t.Fatalf("%s hd=%d pos=%d element %d: %v != %v", ops.Name, hd, pos, i, a[i], b[i])
					}
				}
			}
		}
	}
}

// TestStepLogitsAreScratch documents the buffer-reuse contract: the slice
// returned by Step is overwritten by the next Step on the same engine.
func TestStepLogitsAreScratch(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := ExactOps(testConfig().Activation)
	l1, err := e.Step(3, ops)
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]float64(nil), l1...)
	l2, err := e.Step(7, ops)
	if err != nil {
		t.Fatal(err)
	}
	if &l1[0] != &l2[0] {
		t.Fatal("Step should reuse its logits scratch buffer")
	}
	changed := false
	for i := range saved {
		if saved[i] != l2[i] {
			changed = true
			break
		}
	}
	if !changed {
		t.Fatal("second step left logits unchanged — scratch not rewritten?")
	}
}
