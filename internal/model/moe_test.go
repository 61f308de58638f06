package model

import (
	"testing"
)

func testMoE() MoEConfig {
	return MoEConfig{
		Base:      Llama2_7B,
		Experts:   8,
		TopK:      2,
		ExpertFFN: Llama2_7B.FFN / 4,
	}
}

func TestMoEValidate(t *testing.T) {
	if err := testMoE().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testMoE()
	bad.TopK = 9
	if err := bad.Validate(); err == nil {
		t.Error("topK > experts should fail")
	}
	bad = testMoE()
	bad.ExpertFFN = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero expert width should fail")
	}
}

func TestMoEOpsStructure(t *testing.T) {
	m := testMoE()
	w := m.DecodeOps(8, 1024)
	var router, expertDown, gatingSM *Op
	nlCount := 0
	for i := range w.Ops {
		op := &w.Ops[i]
		switch op.Name {
		case "gate-router":
			router = op
		case "expert-down":
			expertDown = op
		}
		if op.Class == Nonlinear {
			nlCount++
			if op.Elements == 8*m.Experts {
				gatingSM = op
			}
		}
	}
	if router == nil || router.N != 8 {
		t.Errorf("router op: %+v", router)
	}
	if expertDown == nil || expertDown.Repeat != 2 || expertDown.K != m.ExpertFFN {
		t.Errorf("expert down: %+v", expertDown)
	}
	if gatingSM == nil {
		t.Error("gating softmax missing")
	}
	if nlCount != 3 { // attention softmax + gating softmax + activation
		t.Errorf("nonlinear op count %d", nlCount)
	}
}

func TestMoEComputeVsDense(t *testing.T) {
	// Top-2 of 8 quarter-width experts = half the dense FFN compute.
	m := testMoE()
	moe := m.DecodeOps(8, 1024)
	dense := m.Base.DecodeOps(8, 1024)
	var moeFFN, denseFFN int64
	for _, op := range moe.Ops {
		if op.Class == FFN {
			moeFFN += op.MACs() * int64(op.Repeat)
		}
	}
	for _, op := range dense.Ops {
		if op.Class == FFN {
			denseFFN += op.MACs() * int64(op.Repeat)
		}
	}
	ratio := float64(moeFFN) / float64(denseFFN)
	if ratio < 0.45 || ratio > 0.60 {
		t.Errorf("MoE FFN compute ratio %.3f, want ~0.5 (+router)", ratio)
	}
}

func TestMoEDRAMStreamsOnlyActiveExperts(t *testing.T) {
	m := testMoE()
	w := m.DecodeOps(1, 64) // 1 token × top-2 -> only 2 of 8 experts
	if w.WeightStreamBytes == 0 {
		t.Fatal("MoE should override weight streaming")
	}
	allExperts := m.Params() / 2 // INT4 bytes of everything
	if w.DRAMBytesPerPass() >= allExperts {
		t.Errorf("streamed %d >= full footprint %d", w.DRAMBytesPerPass(), allExperts)
	}
	// Larger batches activate more experts, up to the cap.
	big := m.DecodeOps(32, 64)
	if big.WeightStreamBytes <= w.WeightStreamBytes {
		t.Error("more tokens should stream more experts")
	}
}

func TestMoEParamsExceedDenseAttention(t *testing.T) {
	m := testMoE()
	if m.Params() <= m.Base.Params()/2 {
		t.Error("8 experts should hold substantial parameters")
	}
}
