// Package infer is the functional integration layer: a small
// autoregressive transformer decoder that executes the *entire* Mugi
// operator stack end to end — WOQ INT4 weight GEMMs on the VLP array, a
// KVQ INT4 quantized KV cache with grouped-query attention, VLP softmax
// with sliding windows, VLP activations, RoPE via VLP sine/cosine (paper
// §7.1), and RMSNorm on the vector unit. It exists to prove the pieces
// compose: greedy decoding under the full VLP stack must track the exact
// floating-point reference.
package infer

import (
	"fmt"
	"math"
	"math/rand"

	"mugi/internal/core"
	"mugi/internal/nonlinear"
	"mugi/internal/tensor"
)

// Config sizes the decoder.
type Config struct {
	Layers     int
	Heads      int
	KVHeads    int
	Dim        int
	FFN        int
	Vocab      int
	MaxSeq     int
	RoPE       bool
	Activation nonlinear.Op
	Seed       int64
}

// Validate checks the geometry.
func (c Config) Validate() error {
	if c.Layers < 1 || c.Heads < 1 || c.KVHeads < 1 || c.Dim < 1 || c.FFN < 1 ||
		c.Vocab < 2 || c.MaxSeq < 1 {
		return fmt.Errorf("infer: non-positive dimension in %+v", c)
	}
	if c.Dim%c.Heads != 0 {
		return fmt.Errorf("infer: dim %d not divisible by heads %d", c.Dim, c.Heads)
	}
	if c.Heads%c.KVHeads != 0 {
		return fmt.Errorf("infer: heads %d not divisible by KV heads %d", c.Heads, c.KVHeads)
	}
	return nil
}

// HeadDim is the per-head width.
func (c Config) HeadDim() int { return c.Dim / c.Heads }

// Group is the GQA group size.
func (c Config) Group() int { return c.Heads / c.KVHeads }

// Ops bundles the pluggable nonlinear implementations. Each must be a
// pure function of its arguments: Step evaluates Sin and Cos once per
// angle and reuses the results for every head of every layer.
type Ops struct {
	Name    string
	Softmax func(dst, xs []float64)
	Act     func(x float64) float64
	Sin     func(x float64) float64
	Cos     func(x float64) float64
}

// ExactOps is the floating-point reference stack.
func ExactOps(act nonlinear.Op) Ops {
	return Ops{
		Name:    "exact",
		Softmax: func(dst, xs []float64) { nonlinear.SoftmaxExact(dst, xs) },
		Act:     func(x float64) float64 { return nonlinear.Exact(act, x) },
		Sin:     math.Sin,
		Cos:     math.Cos,
	}
}

// VLPOps is the full Mugi stack: sliding-window VLP softmax, VLP
// activation, and VLP sine/cosine for RoPE.
func VLPOps(act nonlinear.Op) Ops {
	sm := core.New(core.Config{Op: nonlinear.Exp, LUTEMin: -8, LUTEMax: 5})
	actA := core.New(core.Config{Op: act, LUTEMin: -8, LUTEMax: 5})
	// RoPE angles need a wider mantissa than the softmax/activation LUTs:
	// sin/cos error is the full input perturbation (|sin'|<=1 with inputs
	// up to pi), so 3 bits would cost ~0.2 absolute error. The paper notes
	// RoPE is a poor fit for the 8-cycle array (§7.1, "utilization might
	// be low"); the 5-bit LUT models the offload path's precision.
	sin := core.New(core.Config{Op: nonlinear.Sin, ManBits: 5, LUTEMin: -9, LUTEMax: 1})
	sin.SetWindow(-6)
	cos := core.New(core.Config{Op: nonlinear.Cos, ManBits: 5, LUTEMin: -9, LUTEMax: 1})
	cos.SetWindow(-6)
	return Ops{
		Name:    "VLP",
		Softmax: func(dst, xs []float64) { sm.Softmax(dst, xs) },
		Act:     actA.Approx,
		Sin:     sin.Approx,
		Cos:     cos.Approx,
	}
}

// layer holds one block's quantized weights (WOQ INT4). Weights are
// quantized once at construction; the exact reference runs against the
// dequantized values so that VLP-vs-exact differences isolate the
// nonlinear approximations, exactly like the paper's accuracy studies.
//
// wkv holds the k projection's KVDim columns, then the v projection's, so
// one GEMM computes both, as the simulator's kv op prices them.
type layer struct {
	wq, wkv, wo core.QuantMatrix
	w1, w2      core.QuantMatrix
}

// Engine is a deterministic decoder instance with its KV cache. All
// per-step working memory lives in the engine's scratch buffers, so a
// warmed Step performs zero steady-state allocations; an Engine must not be
// shared between concurrent Step calls.
type Engine struct {
	cfg    Config
	embed  *tensor.Matrix
	layers []layer
	wout   core.QuantMatrix
	cache  *KVCache
	pos    int
	array  core.GEMMConfig
	// ropeInv[i/2] is the RoPE inverse frequency 10000^(-i/headDim) for
	// dimension pair i, precomputed once so Step never calls math.Pow.
	ropeInv []float64
	sc      stepScratch
	// rec, when set, sees the shape and cycle statistics of every GEMM a
	// Step runs; tests set it to check the decoder against the operator
	// model the simulator prices. It is nil in production.
	rec func(m, k, n int, st core.GEMMStats)
}

// stepScratch is the engine's persistent per-step working memory: the
// residual stream, projection outputs, attention rows, logits, and the
// GEMM scratch, all sized once at construction.
type stepScratch struct {
	x, q, kv []float32
	attnOut  []float32
	proj     []float32
	hidden   []float32
	ffn      []float32
	// attn holds one GQA group's score rows, Group() rows of up to
	// MaxSeq each, each overwritten by its probabilities.
	attn    []float32
	logitsF []float32
	scores  []float64
	probs   []float64
	logits  []float64
	// ropeSin and ropeCos hold the sine and cosine of each dimension
	// pair's RoPE angle at the current position, computed once per Step.
	ropeSin []float64
	ropeCos []float64
	aWrap   tensor.Matrix
	outWrap tensor.Matrix
	gemm    core.GEMMScratch
}

// New builds the decoder with seeded random weights.
func New(cfg Config) (*Engine, error) {
	// The zero value of nonlinear.Op is Exp, which is not a valid FFN
	// activation; this also catches uninitialized configs early.
	if cfg.Activation == nonlinear.Exp {
		return nil, fmt.Errorf("infer: exp is not a valid FFN activation")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	std := 1 / math.Sqrt(float64(cfg.Dim))
	e := &Engine{
		cfg:   cfg,
		embed: tensor.RandNormal(rng, cfg.Vocab, cfg.Dim, 1),
		cache: NewKVCache(cfg),
		array: core.GEMMConfig{Rows: 128, Cols: 8, Mapping: core.MappingMugi},
	}
	kvDim := cfg.KVHeads * cfg.HeadDim()
	for l := 0; l < cfg.Layers; l++ {
		e.layers = append(e.layers, layer{
			wq:  quant(tensor.RandNormal(rng, cfg.Dim, cfg.Dim, std)),
			wkv: quant(randNormalPair(rng, cfg.Dim, kvDim, std)),
			wo:  quant(tensor.RandNormal(rng, cfg.Dim, cfg.Dim, std)),
			w1:  quant(tensor.RandNormal(rng, cfg.Dim, cfg.FFN, std)),
			w2:  quant(tensor.RandNormal(rng, cfg.FFN, cfg.Dim, std/2)),
		})
	}
	e.wout = quant(tensor.RandNormal(rng, cfg.Dim, cfg.Vocab, std))
	hd := cfg.HeadDim()
	e.ropeInv = make([]float64, hd/2)
	for i := 0; i+1 < hd; i += 2 {
		e.ropeInv[i/2] = math.Pow(10000, -float64(i)/float64(hd))
	}
	e.initScratch()
	return e, nil
}

// initScratch sizes the persistent step buffers for the configuration.
func (e *Engine) initScratch() {
	cfg := e.cfg
	kvDim := cfg.KVHeads * cfg.HeadDim()
	e.sc.x = make([]float32, cfg.Dim)
	e.sc.q = make([]float32, cfg.Dim)
	e.sc.kv = make([]float32, 2*kvDim)
	e.sc.attnOut = make([]float32, cfg.Dim)
	e.sc.proj = make([]float32, cfg.Dim)
	e.sc.hidden = make([]float32, cfg.FFN)
	e.sc.ffn = make([]float32, cfg.Dim)
	e.sc.attn = make([]float32, cfg.Group()*cfg.MaxSeq)
	e.sc.logitsF = make([]float32, cfg.Vocab)
	e.sc.scores = make([]float64, cfg.MaxSeq)
	e.sc.probs = make([]float64, cfg.MaxSeq)
	e.sc.logits = make([]float64, cfg.Vocab)
	e.sc.ropeSin = make([]float64, len(e.ropeInv))
	e.sc.ropeCos = make([]float64, len(e.ropeInv))
	// Pre-reserve the GEMM scratch for the widest output any Step GEMM
	// produces (projections, FFN, logits, or a full-context score row), so
	// the scratch never grows mid-decode as the KV context lengthens.
	e.sc.gemm.Reserve(max(cfg.Dim, 2*kvDim, cfg.FFN, cfg.Vocab, cfg.MaxSeq))
}

// randNormalPair draws the two rows × cols matrices tensor.RandNormal
// would draw in turn, straight into the left and right column halves of
// one rows × 2·cols matrix.
func randNormalPair(rng *rand.Rand, rows, cols int, std float64) *tensor.Matrix {
	m := tensor.NewMatrix(rows, 2*cols)
	for _, off := range [2]int{0, cols} {
		for r := 0; r < rows; r++ {
			half := m.Row(r)[off : off+cols]
			for i := range half {
				half[i] = float32(rng.NormFloat64() * std)
			}
		}
	}
	return m
}

func quant(w *tensor.Matrix) core.QuantMatrix {
	group := w.Rows
	if group > 64 {
		group = 64
	}
	return core.QuantizeWeights(w, 4, group)
}

// Reset clears the KV cache in place (the preallocated planes are
// retained, so Reset itself allocates nothing).
func (e *Engine) Reset() {
	e.cache.Reset()
	e.pos = 0
}

// matmul runs x (M×K, M = len(x)/K rows) through the quantized weights
// on the VLP array, writing the M×N product into dst and returning it
// sliced to size. The matrix headers and GEMM scratch persist on the
// engine, so a warmed call allocates nothing.
func (e *Engine) matmul(dst, x []float32, w core.QuantMatrix) []float32 {
	m := len(x) / w.Rows
	e.sc.aWrap = tensor.Matrix{Rows: m, Cols: w.Rows, Data: x}
	e.sc.outWrap = tensor.Matrix{Rows: m, Cols: w.Cols, Data: dst[:m*w.Cols]}
	st := core.MultiplyInto(e.array, &e.sc.aWrap, w, &e.sc.outWrap, &e.sc.gemm)
	if e.rec != nil {
		e.rec(m, w.Rows, w.Cols, st)
	}
	return dst[:m*w.Cols]
}

// applyRoPE rotates consecutive dimension pairs of one head vector by the
// position-dependent angles, using the provided sin/cos implementations.
// No production code calls it: it recomputes the inverse frequencies with
// math.Pow and the sines and cosines per pair, and stays as the reference
// that tests hold Step's ropeTable and rotateRoPE to, bit for bit.
func applyRoPE(v []float32, pos int, sin, cos func(float64) float64) {
	hd := len(v)
	for i := 0; i+1 < hd; i += 2 {
		theta := float64(pos) * math.Pow(10000, -float64(i)/float64(hd))
		s, c := sin(theta), cos(theta)
		a, b := float64(v[i]), float64(v[i+1])
		v[i] = float32(a*c - b*s)
		v[i+1] = float32(a*s + b*c)
	}
}

// ropeTable fills sin[i] and cos[i] with the sine and cosine of pos·inv[i],
// the RoPE angle of dimension pair i at position pos. The angles depend
// only on the position and the pair, so one table serves every head.
func ropeTable(sin, cos []float64, pos int, inv []float64, sinF, cosF func(float64) float64) {
	for i, f := range inv {
		theta := float64(pos) * f
		sin[i], cos[i] = sinF(theta), cosF(theta)
	}
}

// rotateRoPE rotates consecutive dimension pairs of one head vector by the
// angles whose sines and cosines ropeTable computed.
func rotateRoPE(v []float32, sin, cos []float64) {
	for i := 0; i+1 < len(v); i += 2 {
		s, c := sin[i/2], cos[i/2]
		a, b := float64(v[i]), float64(v[i+1])
		v[i] = float32(a*c - b*s)
		v[i+1] = float32(a*s + b*c)
	}
}

// Step feeds one token through the decoder, appends to the KV cache, and
// returns the output logits. The returned slice is the engine's scratch
// buffer: it stays valid until the next Step call on this engine, so copy
// it to retain logits across steps. A warmed Step allocates nothing.
//
//mugi:noalloc
func (e *Engine) Step(token int, ops Ops) ([]float64, error) {
	if token < 0 || token >= e.cfg.Vocab {
		return nil, fmt.Errorf("infer: token %d outside vocab %d", token, e.cfg.Vocab) //mugi:coldalloc invalid-token error path; a valid step never reaches it
	}
	if e.pos >= e.cfg.MaxSeq {
		return nil, fmt.Errorf("infer: KV cache full (%d positions)", e.cfg.MaxSeq) //mugi:coldalloc cache-full error path; bounded generations never reach it
	}
	cfg := e.cfg
	hd := cfg.HeadDim()
	g := cfg.Group()
	kvDim := cfg.KVHeads * hd

	x := e.sc.x
	copy(x, e.embed.Row(token))
	sin, cos := e.sc.ropeSin, e.sc.ropeCos
	if cfg.RoPE {
		ropeTable(sin, cos, e.pos, e.ropeInv, ops.Sin, ops.Cos)
	}

	for li := range e.layers {
		l := &e.layers[li]
		q := e.matmul(e.sc.q, x, l.wq)
		kv := e.matmul(e.sc.kv, x, l.wkv)
		k, v := kv[:kvDim], kv[kvDim:]
		if cfg.RoPE {
			for h := 0; h < cfg.Heads; h++ {
				rotateRoPE(q[h*hd:(h+1)*hd], sin, cos)
			}
			for h := 0; h < cfg.KVHeads; h++ {
				rotateRoPE(k[h*hd:(h+1)*hd], sin, cos)
			}
		}
		e.cache.Append(li, k, v)

		// Each KV head's GQA group of g query heads attends as one g-row
		// score GEMM and one g-row context GEMM, the shape the simulator
		// prices: the group's heads are contiguous in q and attnOut, so
		// neither GEMM copies its rows.
		attnOut := e.sc.attnOut
		ctxLen := e.pos + 1
		scores := e.sc.scores[:ctxLen]
		probs := e.sc.probs[:ctxLen]
		scale := 1 / math.Sqrt(float64(hd))
		for kvh := 0; kvh < cfg.KVHeads; kvh++ {
			group := kvh * g * hd
			keys := e.cache.Keys(li, kvh)     // headDim × ctxLen view
			values := e.cache.Values(li, kvh) // ctxLen × headDim view
			// Scores: the g×hd query rows against the KVQ key cache.
			attn := e.matmul(e.sc.attn, q[group:group+g*hd], keys)
			for qi := 0; qi < g; qi++ {
				row := attn[qi*ctxLen : (qi+1)*ctxLen]
				for t, s := range row {
					scores[t] = float64(s) * scale
				}
				ops.Softmax(probs, scores)
				for t, p := range probs {
					row[t] = float32(p)
				}
			}
			// Context: the g×ctxLen probabilities against the KVQ value
			// cache, straight into the group's attnOut rows.
			e.matmul(attnOut[group:], attn, values)
		}
		proj := e.matmul(e.sc.proj, attnOut, l.wo)
		for i := range x {
			x[i] += proj[i]
		}
		tensor.RMSNormRow(x)

		hidden := e.matmul(e.sc.hidden, x, l.w1)
		for i := range hidden {
			hidden[i] = float32(ops.Act(float64(hidden[i])))
		}
		ffn := e.matmul(e.sc.ffn, hidden, l.w2)
		for i := range x {
			x[i] += ffn[i]
		}
		tensor.RMSNormRow(x)
	}
	e.pos++

	logitsF := e.matmul(e.sc.logitsF, x, e.wout)
	logits := e.sc.logits
	for i, v := range logitsF {
		logits[i] = float64(v)
	}
	return logits, nil
}

// Generate greedily decodes n tokens after feeding the prompt, returning
// the generated ids.
func (e *Engine) Generate(prompt []int, n int, ops Ops) ([]int, error) {
	if len(prompt) == 0 {
		return nil, fmt.Errorf("infer: empty prompt")
	}
	var logits []float64
	var err error
	for _, t := range prompt {
		if logits, err = e.Step(t, ops); err != nil {
			return nil, err
		}
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		next := argmax(logits)
		if next < 0 {
			return nil, fmt.Errorf("infer: greedy decode after %d generated tokens: every logit is NaN or -Inf", len(out))
		}
		out = append(out, next)
		if logits, err = e.Step(next, ops); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// argmax returns the index of the largest finite logit, or -1 when every
// logit is NaN or -Inf — the numeric-blowup case greedy decode must
// surface instead of silently emitting token 0.
func argmax(xs []float64) int {
	best, bestV := -1, math.Inf(-1)
	for i, v := range xs {
		if math.IsNaN(v) {
			continue
		}
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best
}
