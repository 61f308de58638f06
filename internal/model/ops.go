package model

import (
	"fmt"

	"mugi/internal/nonlinear"
)

// OpClass buckets operators the way the paper's latency/carbon breakdowns
// do (Figs. 15-16): projection, attention, FFN, and nonlinear. Switches
// over it must be exhaustive — tools/mugivet's exhauststate analyzer fails
// the lint gate on any switch that could silently drop a class added later.
//
//mugi:exhaustive
type OpClass int

const (
	// Projection covers the Q/K/V/O weight GEMMs.
	Projection OpClass = iota
	// Attention covers the score (Q·Kᵀ) and context (P·V) GEMMs against
	// the KV cache.
	Attention
	// FFN covers the feed-forward weight GEMMs.
	FFN
	// Nonlinear covers softmax and the FFN activation.
	Nonlinear
)

// NumOpClasses is the number of operator classes: the length of every
// array indexed by OpClass, such as sim.Result's per-class breakdowns.
const NumOpClasses = int(Nonlinear) + 1

// OpClasses lists every operator class in declaration order, which is
// also the index order of per-class arrays and so the fixed summation
// order of their totals.
func OpClasses() []OpClass {
	return []OpClass{Projection, Attention, FFN, Nonlinear}
}

// String names the class as in the paper's legends.
func (c OpClass) String() string {
	switch c {
	case Projection:
		return "Projection"
	case Attention:
		return "Attention"
	case FFN:
		return "FFN"
	case Nonlinear:
		return "Nonlinear"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Op is one operator instance to be mapped onto hardware. GEMM ops carry
// M×K×N shapes; nonlinear ops carry element counts.
type Op struct {
	Class OpClass
	// Name identifies the op within the layer ("qkv", "scores", ...).
	Name string
	// M, K, N are the GEMM dimensions (per repetition).
	M, K, N int
	// WeightBits is the precision of the stationary operand: 4 under
	// WOQ/KVQ, 16 for unquantized baselines.
	WeightBits int
	// Repeat is the number of identical instances per layer (e.g. one
	// score GEMM per KV head per batch element).
	Repeat int
	// Elements is the nonlinear element count (nonlinear ops only).
	Elements int
	// NL is the nonlinear function (nonlinear ops only).
	NL nonlinear.Op
	// GQAPacked marks attention GEMMs whose M dimension is a GQA query
	// group sharing one KV cache — the case Mugi's column mapping packs.
	GQAPacked bool
}

// MACs returns the multiply-accumulate count of one repetition.
func (o *Op) MACs() int64 { return int64(o.M) * int64(o.K) * int64(o.N) }

// TotalMACs returns MACs across repetitions.
func (o Op) TotalMACs() int64 { return o.MACs() * int64(o.Repeat) }

// Workload is an operator list for one forward pass (all layers).
type Workload struct {
	Model  Config
	Batch  int
	CtxLen int
	// Decode is true for single-token decoding (GEMV-like), false for
	// prefill.
	Decode bool
	// Ops holds one layer's operators; the full pass repeats them
	// Model.Layers times.
	Ops []Op
	// WeightStreamBytes, when nonzero, overrides the per-pass weight DRAM
	// traffic (used by MoE workloads where only activated experts
	// stream).
	WeightStreamBytes int64
}

// maxLayerOps bounds the operators one layer expands into: three
// projections, two attention GEMMs, softmax, up to three FFN GEMMs and
// the activation.
const maxLayerOps = 10

// DecodeOps expands one decoding step with the given batch size and KV
// context length into per-layer operators. Weight GEMMs use WOQ INT4 and
// KV-cache GEMMs use KVQ INT4 (paper §4.2).
func (c Config) DecodeOps(batch, ctxLen int) Workload {
	return c.AppendDecodeOps(make([]Op, 0, maxLayerOps), batch, ctxLen)
}

// AppendDecodeOps is DecodeOps building its operators onto dst, whose
// backing array the returned Workload's Ops shares: a caller that
// prices many shapes passes one scratch slice, dst[:0], and builds
// every operator list without allocating once it has grown.
//
//mugi:noalloc
func (c Config) AppendDecodeOps(dst []Op, batch, ctxLen int) Workload {
	if batch < 1 || ctxLen < 1 {
		panic(fmt.Sprintf("model: invalid decode batch %d ctx %d", batch, ctxLen))
	}
	h := c.Hidden
	hd := c.HeadDim()
	g := c.GQAGroup()
	ops := append(dst,
		Op{Class: Projection, Name: "q", M: batch, K: h, N: h, WeightBits: 4, Repeat: 1},
		Op{Class: Projection, Name: "kv", M: batch, K: h, N: 2 * c.KVDim(), WeightBits: 4, Repeat: 1},
		Op{Class: Projection, Name: "o", M: batch, K: h, N: h, WeightBits: 4, Repeat: 1},
		// Per KV head, the GQA query group of size g attends against the
		// shared INT4 KV cache: scores (g×hd·ctx) then context (g×ctx·hd).
		Op{Class: Attention, Name: "scores", M: g, K: hd, N: ctxLen, WeightBits: 4, Repeat: batch * c.KVHeads, GQAPacked: true},
		Op{Class: Attention, Name: "context", M: g, K: ctxLen, N: hd, WeightBits: 4, Repeat: batch * c.KVHeads, GQAPacked: true},
		Op{Class: Nonlinear, Name: "softmax", Elements: batch * c.AttnHeads * ctxLen, NL: nonlinear.Exp},
	)
	ops = c.appendFFN(ops, batch)
	return Workload{Model: c, Batch: batch, CtxLen: ctxLen, Decode: true, Ops: ops}
}

// PrefillOps expands a prefill pass over seqLen tokens.
func (c Config) PrefillOps(batch, seqLen int) Workload {
	return c.AppendPrefillOps(make([]Op, 0, maxLayerOps), batch, seqLen)
}

// AppendPrefillOps is PrefillOps building its operators onto dst, like
// AppendDecodeOps.
//
//mugi:noalloc
func (c Config) AppendPrefillOps(dst []Op, batch, seqLen int) Workload {
	if batch < 1 || seqLen < 1 {
		panic(fmt.Sprintf("model: invalid prefill batch %d seq %d", batch, seqLen))
	}
	h := c.Hidden
	hd := c.HeadDim()
	tokens := batch * seqLen
	ops := append(dst,
		Op{Class: Projection, Name: "q", M: tokens, K: h, N: h, WeightBits: 4, Repeat: 1},
		Op{Class: Projection, Name: "kv", M: tokens, K: h, N: 2 * c.KVDim(), WeightBits: 4, Repeat: 1},
		Op{Class: Projection, Name: "o", M: tokens, K: h, N: h, WeightBits: 4, Repeat: 1},
		Op{Class: Attention, Name: "scores", M: seqLen * c.GQAGroup(), K: hd, N: seqLen, WeightBits: 4, Repeat: batch * c.KVHeads, GQAPacked: true},
		Op{Class: Attention, Name: "context", M: seqLen * c.GQAGroup(), K: seqLen, N: hd, WeightBits: 4, Repeat: batch * c.KVHeads, GQAPacked: true},
		Op{Class: Nonlinear, Name: "softmax", Elements: batch * c.AttnHeads * seqLen * seqLen, NL: nonlinear.Exp},
	)
	ops = c.appendFFN(ops, tokens)
	return Workload{Model: c, Batch: batch, CtxLen: seqLen, Decode: false, Ops: ops}
}

// appendFFN appends one layer's FFN GEMMs and activation over m tokens.
func (c Config) appendFFN(ops []Op, m int) []Op {
	h := c.Hidden
	if c.GatedFFN {
		ops = append(ops,
			Op{Class: FFN, Name: "gate", M: m, K: h, N: c.FFN, WeightBits: 4, Repeat: 1},
			Op{Class: FFN, Name: "up", M: m, K: h, N: c.FFN, WeightBits: 4, Repeat: 1},
			Op{Class: FFN, Name: "down", M: m, K: c.FFN, N: h, WeightBits: 4, Repeat: 1},
		)
	} else {
		ops = append(ops,
			Op{Class: FFN, Name: "up", M: m, K: h, N: c.FFN, WeightBits: 4, Repeat: 1},
			Op{Class: FFN, Name: "down", M: m, K: c.FFN, N: h, WeightBits: 4, Repeat: 1},
		)
	}
	return append(ops, Op{Class: Nonlinear, Name: "activation", Elements: m * c.FFN, NL: c.Activation})
}

// TotalMACsPerLayer sums GEMM MACs over one layer.
func (w Workload) TotalMACsPerLayer() int64 {
	var s int64
	for _, op := range w.Ops {
		if op.Class != Nonlinear {
			r := op.Repeat
			if r == 0 {
				r = 1
			}
			s += op.MACs() * int64(r)
		}
	}
	return s
}

// TotalMACs sums GEMM MACs over the full pass.
func (w Workload) TotalMACs() int64 {
	return w.TotalMACsPerLayer() * int64(w.Model.Layers)
}

// NonlinearElementsPerLayer sums nonlinear element counts over one layer.
func (w Workload) NonlinearElementsPerLayer() int64 {
	var s int64
	for _, op := range w.Ops {
		if op.Class == Nonlinear {
			s += int64(op.Elements)
		}
	}
	return s
}

// DRAMBytesPerPass estimates off-chip traffic for one pass: every INT4
// weight is read once, the KV cache is read once (decode), and the new
// KV entries are written.
func (w *Workload) DRAMBytesPerPass() int64 {
	bytes := w.Model.WeightBytes(4)
	if w.WeightStreamBytes > 0 {
		bytes = w.WeightStreamBytes
	}
	if w.Decode {
		bytes += w.Model.KVCacheBytes(w.Batch, w.CtxLen, 4)       // read cache
		bytes += 2 * int64(w.Model.KVDim()*w.Model.Layers) / 2    // append K,V (int4)
		bytes += int64(w.Batch*w.Model.Hidden*w.Model.Layers) * 2 // activations
	} else {
		bytes += w.Model.KVCacheBytes(w.Batch, w.CtxLen, 4) // write cache
		bytes += int64(w.Batch*w.CtxLen*w.Model.Hidden*w.Model.Layers) * 2
	}
	return bytes
}

// TokensPerPass is the number of tokens a pass produces: batch tokens for
// decode, batch×seq for prefill.
func (w Workload) TokensPerPass() int {
	if w.Decode {
		return w.Batch
	}
	return w.Batch * w.CtxLen
}
