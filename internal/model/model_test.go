package model

import (
	"testing"

	"mugi/internal/nonlinear"
)

func TestAllModelsValidate(t *testing.T) {
	for _, m := range AllModels() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestLlama70BGeometry(t *testing.T) {
	m := Llama2_70B_GQA
	if m.HeadDim() != 128 {
		t.Errorf("head dim %d", m.HeadDim())
	}
	if m.GQAGroup() != 8 {
		t.Errorf("GQA group %d (paper: group size 8)", m.GQAGroup())
	}
	if m.KVDim() != 1024 {
		t.Errorf("KV dim %d", m.KVDim())
	}
	if Llama2_70B.GQAGroup() != 1 {
		t.Errorf("MHA variant group %d", Llama2_70B.GQAGroup())
	}
}

func TestParamCountsApproximatePaperSizes(t *testing.T) {
	// Projection+FFN params are the bulk of each model; check the order of
	// magnitude matches the model names.
	cases := []struct {
		m      Config
		lo, hi float64 // billions
	}{
		{Llama2_7B, 5.5, 7.5},
		{Llama2_13B, 10, 14},
		{Llama2_70B_GQA, 55, 75},
	}
	for _, c := range cases {
		b := float64(c.m.Params()) / 1e9
		if b < c.lo || b > c.hi {
			t.Errorf("%s: %.2fB params outside [%v, %v]", c.m.Name, b, c.lo, c.hi)
		}
	}
}

func TestWeightBytesInt4Halves(t *testing.T) {
	m := Llama2_7B
	if m.WeightBytes(4)*2 != m.WeightBytes(8) {
		t.Error("INT4 should be half of INT8")
	}
}

func TestKVCacheBytes(t *testing.T) {
	m := Llama2_70B_GQA
	// 2 (K,V) × 1024 kvdim × 80 layers × batch × ctx × 0.5 bytes.
	want := int64(2*1024*80) * 8 * 4096 / 2
	if got := m.KVCacheBytes(8, 4096, 4); got != want {
		t.Errorf("KV cache %d, want %d", got, want)
	}
	// GQA shrinks the cache 8x vs MHA.
	if Llama2_70B.KVCacheBytes(8, 4096, 4) != 8*m.KVCacheBytes(8, 4096, 4) {
		t.Error("GQA should shrink KV cache by the group factor")
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("Llama 2 7B")
	if err != nil || m.Layers != 32 {
		t.Fatalf("ByName: %v %+v", err, m)
	}
	if _, err := ByName("GPT-5"); err == nil {
		t.Error("unknown model should error")
	}
}

func TestDecodeOpsStructure(t *testing.T) {
	w := Llama2_70B_GQA.DecodeOps(8, 4096)
	if !w.Decode || w.Batch != 8 || w.CtxLen != 4096 {
		t.Fatalf("workload header %+v", w)
	}
	classes := map[OpClass]int{}
	var scores, softmax *Op
	for i := range w.Ops {
		op := &w.Ops[i]
		classes[op.Class]++
		switch op.Name {
		case "scores":
			scores = op
		case "softmax":
			softmax = op
		}
	}
	if classes[Projection] != 3 || classes[Attention] != 2 || classes[FFN] != 3 || classes[Nonlinear] != 2 {
		t.Errorf("class counts: %v", classes)
	}
	if scores == nil || !scores.GQAPacked || scores.M != 8 {
		t.Errorf("scores op: %+v", scores)
	}
	if scores.Repeat != 8*8 { // batch * KV heads
		t.Errorf("scores repeat %d", scores.Repeat)
	}
	if softmax.Elements != 8*64*4096 {
		t.Errorf("softmax elements %d", softmax.Elements)
	}
	if softmax.NL != nonlinear.Exp {
		t.Errorf("softmax NL %v", softmax.NL)
	}
}

func TestDecodeMACsMatchParams(t *testing.T) {
	// For decode, weight-GEMM MACs per token ~= weight params (each weight
	// used once per token).
	m := Llama2_7B
	w := m.DecodeOps(1, 1) // ctx 1 makes attention negligible
	var weightMACs int64
	for _, op := range w.Ops {
		if op.Class == Projection || op.Class == FFN {
			weightMACs += op.MACs() * int64(op.Repeat)
		}
	}
	weightMACs *= int64(m.Layers)
	if weightMACs != m.Params() {
		t.Errorf("weight MACs %d != params %d", weightMACs, m.Params())
	}
}

func TestPrefillScalesWithSeq(t *testing.T) {
	m := WhisperLarge
	w1 := m.PrefillOps(1, 128)
	w2 := m.PrefillOps(1, 256)
	if w2.TotalMACs() <= w1.TotalMACs() {
		t.Error("prefill MACs should grow with seq len")
	}
	if w1.TokensPerPass() != 128 || w2.TokensPerPass() != 256 {
		t.Errorf("tokens per pass %d %d", w1.TokensPerPass(), w2.TokensPerPass())
	}
}

func TestDecodeTokensPerPass(t *testing.T) {
	if got := Llama2_7B.DecodeOps(8, 128).TokensPerPass(); got != 8 {
		t.Errorf("decode tokens %d", got)
	}
}

func TestDRAMBytesDominatedByWeights(t *testing.T) {
	m := Llama2_70B_GQA
	w := m.DecodeOps(8, 4096)
	bytes := w.DRAMBytesPerPass()
	if bytes < m.WeightBytes(4) {
		t.Error("traffic below weight footprint")
	}
	if bytes > 2*m.WeightBytes(4) {
		t.Error("decode traffic should be weight-dominated at batch 8")
	}
}

func TestOpsValidateArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"decode":  func() { Llama2_7B.DecodeOps(0, 1) },
		"prefill": func() { Llama2_7B.PrefillOps(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}
