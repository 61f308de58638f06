package infer

import (
	"testing"

	"mugi/internal/core"
	"mugi/internal/model"
	"mugi/internal/nonlinear"
)

// TestStepMatchesDecodeOps checks the functional decoder against the
// operator model the simulator prices, layer by layer: every GEMM one
// Step runs, with its shape and core.PlanCycles cycles, and every
// nonlinear element count, against model.Config.AppendDecodeOps(nil, 1,
// ctx) for the same geometry (Hidden = Dim, AttnHeads = Heads, an ungated
// FFN). GEMMs are seen through the engine's recorder, nonlinear counts
// through wrapped Ops. The decoder's k and v projections run as the
// model's one "kv" GEMM of width 2·KVDim.
//
// What the model leaves out: the vocab projection after the last layer,
// RoPE's Sin and Cos (one of each per dimension pair and Step, shared by
// every head of every layer), and RMSNorm (tensor.RMSNormRow, which the
// vector unit runs twice per layer and no op prices).
func TestStepMatchesDecodeOps(t *testing.T) {
	for _, geo := range []struct {
		name                string
		heads, kvHeads, dim int
	}{
		{"g2", 4, 2, 32},
		{"g4", 8, 2, 64},
		{"g8", 8, 1, 64},
		{"g3", 6, 2, 48},
		{"g1", 4, 4, 32},
	} {
		t.Run(geo.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Heads, cfg.KVHeads, cfg.Dim = geo.heads, geo.kvHeads, geo.dim
			e, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			vlp := VLPOps(cfg.Activation)
			for tok := 0; tok < 6; tok++ {
				if _, err := e.Step(tok, vlp); err != nil {
					t.Fatal(err)
				}
			}
			ctx := e.pos + 1 // the recorded step attends over 7 tokens

			type gemm struct {
				m, k, n int
				st      core.GEMMStats
			}
			var gemms []gemm
			var softmaxN, actN, sinN, cosN int
			ops := vlp
			ops.Softmax = func(dst, xs []float64) { softmaxN += len(xs); vlp.Softmax(dst, xs) }
			ops.Act = func(x float64) float64 { actN++; return vlp.Act(x) }
			ops.Sin = func(x float64) float64 { sinN++; return vlp.Sin(x) }
			ops.Cos = func(x float64) float64 { cosN++; return vlp.Cos(x) }
			e.rec = func(m, k, n int, st core.GEMMStats) { gemms = append(gemms, gemm{m, k, n, st}) }
			if _, err := e.Step(6, ops); err != nil {
				t.Fatal(err)
			}
			e.rec = nil

			mc := model.Config{
				Name: "decoder", Layers: cfg.Layers, AttnHeads: cfg.Heads, KVHeads: cfg.KVHeads,
				Hidden: cfg.Dim, FFN: cfg.FFN, MaxSeq: cfg.MaxSeq, Activation: cfg.Activation,
			}
			w := mc.AppendDecodeOps(nil, 1, ctx)
			op := map[string]model.Op{}
			for _, o := range w.Ops {
				op[o.Name] = o
			}
			if kv := op["kv"]; kv.N != 2*mc.KVDim() {
				t.Fatalf("model kv op is %d wide, want 2·KVDim = %d", kv.N, 2*mc.KVDim())
			}
			// One layer of the decoder in its run order: q, kv, the score
			// and context GEMMs of each KV head, o, up and down.
			layer := []model.Op{op["q"], op["kv"]}
			for r := 0; r < op["scores"].Repeat; r++ {
				layer = append(layer, op["scores"], op["context"])
			}
			layer = append(layer, op["o"], op["up"], op["down"])
			if got, want := len(gemms), cfg.Layers*len(layer)+1; got != want {
				t.Fatalf("Step ran %d GEMMs, the model prices %d per layer over %d layers plus the vocab projection (%d)",
					got, len(layer), cfg.Layers, want)
			}
			var macs int64
			for l := 0; l < cfg.Layers; l++ {
				for i, o := range layer {
					g := gemms[l*len(layer)+i]
					if g.m != o.M || g.k != o.K || g.n != o.N {
						t.Fatalf("layer %d GEMM %d: decoder runs %dx%dx%d, model %q prices %dx%dx%d",
							l, i, g.m, g.k, g.n, o.Name, o.M, o.K, o.N)
					}
					if want := core.PlanCycles(e.array, o.M, o.K, o.N, o.WeightBits); g.st != want {
						t.Fatalf("layer %d GEMM %d (%q): stats %+v, PlanCycles of the model's shape %+v", l, i, o.Name, g.st, want)
					}
					macs += int64(g.m) * int64(g.k) * int64(g.n)
				}
			}
			if want := w.TotalMACsPerLayer() * int64(cfg.Layers); macs != want {
				t.Fatalf("decoder layers run %d MACs, model %d", macs, want)
			}
			if v := gemms[len(gemms)-1]; v.m != 1 || v.k != cfg.Dim || v.n != cfg.Vocab {
				t.Fatalf("last GEMM %dx%dx%d, want the 1x%dx%d vocab projection", v.m, v.k, v.n, cfg.Dim, cfg.Vocab)
			}

			if want := cfg.Layers * op["softmax"].Elements; softmaxN != want {
				t.Errorf("softmax saw %d elements, model %d", softmaxN, want)
			}
			if want := cfg.Layers * op["activation"].Elements; actN != want {
				t.Errorf("activation saw %d elements, model %d", actN, want)
			}
			for _, o := range w.Ops {
				if o.Class == model.Nonlinear && (o.NL == nonlinear.Sin || o.NL == nonlinear.Cos) {
					t.Fatalf("the model now prices RoPE (%q); count it here", o.Name)
				}
			}
			rope := cfg.HeadDim() / 2
			if sinN != rope || cosN != rope {
				t.Errorf("RoPE ran %d sin and %d cos, want %d each", sinN, cosN, rope)
			}
		})
	}
}
