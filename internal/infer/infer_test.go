package infer

import (
	"math"
	"testing"

	"mugi/internal/nonlinear"
	"mugi/internal/tensor"
)

func testConfig() Config {
	return Config{
		Layers: 2, Heads: 4, KVHeads: 2, Dim: 32, FFN: 64,
		Vocab: 64, MaxSeq: 64, RoPE: true,
		Activation: nonlinear.SiLU, Seed: 99,
	}
}

func TestConfigValidate(t *testing.T) {
	bad := testConfig()
	bad.Heads = 3 // not divisible by KVHeads=2, and 32%3 != 0
	if err := bad.Validate(); err == nil {
		t.Error("expected geometry error")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("zero config should fail")
	}
	expCfg := testConfig()
	expCfg.Activation = nonlinear.Exp
	if _, err := New(expCfg); err == nil {
		t.Error("exp activation should be rejected")
	}
}

func TestStepDeterministic(t *testing.T) {
	e1, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	e2, _ := New(testConfig())
	ops := ExactOps(nonlinear.SiLU)
	l1, err := e1.Step(3, ops)
	if err != nil {
		t.Fatal(err)
	}
	l2, _ := e2.Step(3, ops)
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("non-deterministic logits at %d", i)
		}
	}
}

func TestStepValidates(t *testing.T) {
	e, _ := New(testConfig())
	ops := ExactOps(nonlinear.SiLU)
	if _, err := e.Step(-1, ops); err == nil {
		t.Error("negative token should fail")
	}
	if _, err := e.Step(1000, ops); err == nil {
		t.Error("out-of-vocab token should fail")
	}
}

func TestKVCacheGrowsAndOverflows(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSeq = 3
	e, _ := New(cfg)
	ops := ExactOps(nonlinear.SiLU)
	for i := 0; i < 3; i++ {
		if _, err := e.Step(i, ops); err != nil {
			t.Fatal(err)
		}
	}
	if e.pos != 3 {
		t.Errorf("pos %d", e.pos)
	}
	if _, err := e.Step(0, ops); err == nil {
		t.Error("cache overflow should fail")
	}
	e.Reset()
	if e.pos != 0 {
		t.Error("reset did not clear")
	}
	if _, err := e.Step(0, ops); err != nil {
		t.Errorf("step after reset: %v", err)
	}
}

func TestVLPTracksExactReference(t *testing.T) {
	// The full VLP stack (softmax + activation + RoPE sin/cos) must track
	// the exact stack closely: same greedy tokens for a short generation.
	cfgs := []Config{testConfig()}
	noRope := testConfig()
	noRope.RoPE = false
	noRope.Activation = nonlinear.GELU
	cfgs = append(cfgs, noRope)
	for _, cfg := range cfgs {
		exact, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vlp, _ := New(cfg)
		prompt := []int{5, 17, 42}
		wantTokens, err := exact.Generate(prompt, 8, ExactOps(cfg.Activation))
		if err != nil {
			t.Fatal(err)
		}
		gotTokens, err := vlp.Generate(prompt, 8, VLPOps(cfg.Activation))
		if err != nil {
			t.Fatal(err)
		}
		same := 0
		for i := range wantTokens {
			if wantTokens[i] == gotTokens[i] {
				same++
			}
		}
		if same < 6 { // allow at most 2 divergences over 8 greedy steps
			t.Errorf("RoPE=%v: VLP tokens %v vs exact %v (%d/8 match)",
				cfg.RoPE, gotTokens, wantTokens, same)
		}
	}
}

func TestVLPLogitsClose(t *testing.T) {
	cfg := testConfig()
	exact, _ := New(cfg)
	vlp, _ := New(cfg)
	le, err := exact.Step(7, ExactOps(cfg.Activation))
	if err != nil {
		t.Fatal(err)
	}
	lv, err := vlp.Step(7, VLPOps(cfg.Activation))
	if err != nil {
		t.Fatal(err)
	}
	var rmse float64
	for i := range le {
		d := le[i] - lv[i]
		rmse += d * d
	}
	rmse = math.Sqrt(rmse / float64(len(le)))
	if rmse > 0.5 {
		t.Errorf("logit RMSE %v too large", rmse)
	}
}

func TestGenerateValidates(t *testing.T) {
	e, _ := New(testConfig())
	if _, err := e.Generate(nil, 3, ExactOps(nonlinear.SiLU)); err == nil {
		t.Error("empty prompt should fail")
	}
}

func TestKVCacheQuantizationError(t *testing.T) {
	cfg := testConfig()
	c := NewKVCache(cfg)
	k := make([]float32, cfg.KVHeads*cfg.HeadDim())
	v := make([]float32, len(k))
	for i := range k {
		k[i] = float32(i%7) - 3
		v[i] = float32(i%5) - 2
	}
	c.Append(0, k, v)
	back := c.DequantKeys(0, 0)
	hd := cfg.HeadDim()
	for d := 0; d < hd; d++ {
		scale := c.keyScale[0][0][0]
		if diff := math.Abs(float64(back.At(0, d) - k[d])); diff > float64(scale)/2+1e-6 {
			t.Fatalf("dim %d: dequant err %v > half step", d, diff)
		}
	}
	if c.tokens != 1 {
		t.Errorf("tokens %d", c.tokens)
	}
	if c.Bytes() <= 0 {
		t.Error("bytes should be positive")
	}
}

func TestKVCacheGQAShrinksFootprint(t *testing.T) {
	gqa := testConfig() // 2 KV heads
	mha := testConfig()
	mha.KVHeads = 4
	cg := NewKVCache(gqa)
	cm := NewKVCache(mha)
	k2 := make([]float32, gqa.KVHeads*gqa.HeadDim())
	k4 := make([]float32, mha.KVHeads*mha.HeadDim())
	cg.Append(0, k2, k2)
	cm.Append(0, k4, k4)
	if cg.Bytes()*2 != cm.Bytes() {
		t.Errorf("GQA bytes %d vs MHA %d (want half)", cg.Bytes(), cm.Bytes())
	}
}

func TestKVCacheMatrixLayouts(t *testing.T) {
	// Keys() must be the transpose layout of the stored token rows, and
	// scores via the QuantMatrix must equal the dequantized reference.
	cfg := testConfig()
	e, _ := New(cfg)
	ops := ExactOps(cfg.Activation)
	for i := 0; i < 4; i++ {
		if _, err := e.Step(i+1, ops); err != nil {
			t.Fatal(err)
		}
	}
	keysQ := e.cache.Keys(0, 0)
	if keysQ.Rows != cfg.HeadDim() || keysQ.Cols != 4 {
		t.Fatalf("keys shape %dx%d", keysQ.Rows, keysQ.Cols)
	}
	ref := e.cache.DequantKeys(0, 0) // tokens × headDim
	deq := keysQ.Dequantize()        // headDim × tokens
	if diff := tensor.MaxAbsDiff(ref.T(), deq); diff > 1e-6 {
		t.Errorf("key layout mismatch: %v", diff)
	}
	valsQ := e.cache.Values(0, 0)
	if valsQ.Rows != 4 || valsQ.Cols != cfg.HeadDim() {
		t.Fatalf("values shape %dx%d", valsQ.Rows, valsQ.Cols)
	}
}

func TestRoPERotationExact(t *testing.T) {
	// Rotating by position 0 is the identity; rotation preserves pair
	// norms at any position. Step's table path gives applyRoPE's bits.
	orig := []float32{1, 2, 3, 4}
	for _, pos := range []int{0, 9} {
		v := append([]float32(nil), orig...)
		applyRoPE(v, pos, math.Sin, math.Cos)
		table := append([]float32(nil), orig...)
		ropeByTable(table, 1, pos, math.Sin, math.Cos)
		for i := range v {
			if math.Float32bits(v[i]) != math.Float32bits(table[i]) {
				t.Fatalf("pos %d: table path %v, applyRoPE %v", pos, table, v)
			}
			if pos == 0 && v[i] != orig[i] {
				t.Fatalf("pos 0 not identity: %v", v)
			}
		}
		for i := 0; i+1 < len(v); i += 2 {
			n0 := float64(orig[i])*float64(orig[i]) + float64(orig[i+1])*float64(orig[i+1])
			n1 := float64(v[i])*float64(v[i]) + float64(v[i+1])*float64(v[i+1])
			if math.Abs(n0-n1) > 1e-4 {
				t.Errorf("pos %d pair %d: norm %v -> %v", pos, i, n0, n1)
			}
		}
	}
}

func TestVLPSinCosAccuracy(t *testing.T) {
	ops := VLPOps(nonlinear.SiLU)
	for x := -10.0; x <= 10.0; x += 0.37 {
		if d := math.Abs(ops.Sin(x) - math.Sin(x)); d > 0.08 {
			t.Errorf("sin(%v): err %v", x, d)
		}
		if d := math.Abs(ops.Cos(x) - math.Cos(x)); d > 0.08 {
			t.Errorf("cos(%v): err %v", x, d)
		}
	}
}

func TestArgmaxSkipsNonFinite(t *testing.T) {
	cases := []struct {
		xs   []float64
		want int
	}{
		{[]float64{0.1, 0.9, 0.3}, 1},
		{[]float64{math.NaN(), 0.2, 0.1}, 1},
		{[]float64{math.Inf(-1), math.Inf(-1), -3}, 2},
		{[]float64{math.NaN(), math.NaN()}, -1},
		{[]float64{math.Inf(-1), math.Inf(-1)}, -1},
		{[]float64{math.NaN(), math.Inf(-1)}, -1},
		{nil, -1},
	}
	for _, c := range cases {
		if got := argmax(c.xs); got != c.want {
			t.Errorf("argmax(%v) = %d, want %d", c.xs, got, c.want)
		}
	}
}

// TestGenerateSurfacesNaNLogits: a numerically blown-up stack (here an
// activation that always returns NaN, poisoning every downstream GEMM)
// must make greedy decode fail loudly instead of silently emitting
// token 0 forever.
func TestGenerateSurfacesNaNLogits(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	ops := ExactOps(nonlinear.SiLU)
	ops.Act = func(float64) float64 { return math.NaN() }
	if _, err := e.Generate([]int{1, 2}, 4, ops); err == nil {
		t.Fatal("NaN logits must surface as a Generate error")
	}
	// The healthy stack still decodes.
	e.Reset()
	out, err := e.Generate([]int{1, 2}, 4, ExactOps(nonlinear.SiLU))
	if err != nil || len(out) != 4 {
		t.Fatalf("healthy decode: %v %v", out, err)
	}
}
