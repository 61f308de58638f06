package infer

import (
	"fmt"

	"mugi/internal/core"
	"mugi/internal/tensor"
)

// KVCache is the KVQ INT4 quantized key/value cache (paper §2.3.3):
// every appended key/value head-vector is quantized symmetrically with one
// scale per token per head, and attention GEMMs read the codes directly —
// the Mugi mapping places them on the array rows.
//
// Storage is preallocated for MaxSeq tokens in exactly the layouts the two
// attention GEMMs consume, so Append writes in place and Keys/Values return
// zero-copy QuantMatrix views: keys are kept dimension-major (headDim rows
// of MaxSeq-strided codes, the K^T operand of the score GEMM) and values
// token-major (the row-major operand of the context GEMM).
type KVCache struct {
	cfg Config
	// keyCodes[layer][kvHead] is a headDim × MaxSeq dimension-major plane;
	// token t of dimension d lives at [d*MaxSeq+t].
	keyCodes [][][]int8
	keyScale [][][]float32
	// valCodes[layer][kvHead] is a MaxSeq × headDim token-major plane;
	// token t of dimension d lives at [t*headDim+d].
	valCodes [][][]int8
	valScale [][][]float32
	tokens   int
}

// NewKVCache allocates an empty cache for the configuration, sized for
// cfg.MaxSeq tokens so steady-state appends never allocate.
func NewKVCache(cfg Config) *KVCache {
	hd := cfg.HeadDim()
	c := &KVCache{cfg: cfg}
	c.keyCodes = make([][][]int8, cfg.Layers)
	c.keyScale = make([][][]float32, cfg.Layers)
	c.valCodes = make([][][]int8, cfg.Layers)
	c.valScale = make([][][]float32, cfg.Layers)
	for l := 0; l < cfg.Layers; l++ {
		c.keyCodes[l] = make([][]int8, cfg.KVHeads)
		c.keyScale[l] = make([][]float32, cfg.KVHeads)
		c.valCodes[l] = make([][]int8, cfg.KVHeads)
		c.valScale[l] = make([][]float32, cfg.KVHeads)
		for h := 0; h < cfg.KVHeads; h++ {
			c.keyCodes[l][h] = make([]int8, hd*cfg.MaxSeq)
			c.keyScale[l][h] = make([]float32, 0, cfg.MaxSeq)
			c.valCodes[l][h] = make([]int8, cfg.MaxSeq*hd)
			c.valScale[l][h] = make([]float32, 0, cfg.MaxSeq)
		}
	}
	return c
}

// Reset truncates the cache to zero tokens in place, retaining the
// preallocated code planes: Keys/Values views are sized by the scale-slice
// lengths, and codes are rewritten by Append before they can be read, so
// wrap-around resets cost no allocation.
func (c *KVCache) Reset() {
	for l := range c.keyScale {
		for h := range c.keyScale[l] {
			c.keyScale[l][h] = c.keyScale[l][h][:0]
			c.valScale[l][h] = c.valScale[l][h][:0]
		}
	}
	c.tokens = 0
}

// Bytes reports the approximate cache footprint: 4 bits per code plus one
// float16-equivalent scale per token per head. No production code calls
// it: it stays as the functional cache's footprint that internal/serve's
// tests hold the scheduler's KVBytesPerToken to.
func (c *KVCache) Bytes() int64 {
	perToken := int64(2*c.cfg.KVHeads*c.cfg.HeadDim())/2 + int64(2*c.cfg.KVHeads)*2
	return perToken * int64(c.tokens) * int64(c.cfg.Layers)
}

// quantizeHeadStrided encodes one head vector to INT4 with a single scale,
// writing code i to dst[i*stride]. The rounding is round-half-away-from-
// zero, the same rule at every call site since the seed.
func quantizeHeadStrided(dst []int8, stride int, v []float32) float32 {
	maxAbs := float32(0)
	for _, x := range v {
		a := x
		if a < 0 {
			a = -a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	scale := maxAbs / 7
	if scale == 0 {
		scale = 1
	}
	for i, x := range v {
		q := int(float64(x)/float64(scale) + 0.5)
		if x < 0 {
			q = int(float64(x)/float64(scale) - 0.5)
		}
		if q > 7 {
			q = 7
		}
		if q < -7 {
			q = -7
		}
		dst[i*stride] = int8(q)
	}
	return scale
}

// Append quantizes and stores one token's key/value projections for a
// layer (k and v are the full kvDim-wide vectors). The first layer append
// of a step advances the token count. Appends beyond MaxSeq panic; Engine
// guards the limit with an error before calling.
func (c *KVCache) Append(layer int, k, v []float32) {
	if layer < 0 || layer >= c.cfg.Layers {
		panic(fmt.Sprintf("infer: layer %d out of range", layer))
	}
	hd := c.cfg.HeadDim()
	if len(k) != c.cfg.KVHeads*hd || len(v) != c.cfg.KVHeads*hd {
		panic("infer: KV append width mismatch")
	}
	for h := 0; h < c.cfg.KVHeads; h++ {
		t := len(c.keyScale[layer][h])
		if t >= c.cfg.MaxSeq {
			panic(fmt.Sprintf("infer: KV cache full (%d positions)", c.cfg.MaxSeq))
		}
		ks := quantizeHeadStrided(c.keyCodes[layer][h][t:], c.cfg.MaxSeq, k[h*hd:(h+1)*hd])
		vs := quantizeHeadStrided(c.valCodes[layer][h][t*hd:], 1, v[h*hd:(h+1)*hd])
		c.keyScale[layer][h] = append(c.keyScale[layer][h], ks)
		c.valScale[layer][h] = append(c.valScale[layer][h], vs)
	}
	if layer == 0 {
		c.tokens++
	}
}

// Keys returns the key cache of one head as a headDim × tokens
// QuantMatrix (K^T layout): reduction over headDim, one column — and one
// scale — per cached token. This is exactly the operand the scores GEMM
// consumes; the view aliases the cache storage (stride MaxSeq) and
// allocates nothing.
func (c *KVCache) Keys(layer, head int) core.QuantMatrix {
	hd := c.cfg.HeadDim()
	tokens := len(c.keyScale[layer][head])
	return core.QuantMatrix{
		Rows: hd, Cols: tokens, Bits: 4, GroupSize: hd,
		Stride: c.cfg.MaxSeq,
		Codes:  c.keyCodes[layer][head],
		Scales: c.keyScale[layer][head][:tokens],
	}
}

// Values returns the value cache of one head as a tokens × headDim
// QuantMatrix: reduction over tokens with per-token scales (GroupSize 1
// along the reduction axis, one scale shared by every column), the operand
// of the context GEMM. The view aliases the cache storage and allocates
// nothing.
func (c *KVCache) Values(layer, head int) core.QuantMatrix {
	hd := c.cfg.HeadDim()
	tokens := len(c.valScale[layer][head])
	return core.QuantMatrix{
		Rows: tokens, Cols: hd, Bits: 4, GroupSize: 1,
		SharedScales: true,
		Codes:        c.valCodes[layer][head][:tokens*hd],
		Scales:       c.valScale[layer][head][:tokens],
	}
}

// DequantKeys reconstructs the float key matrix (tokens × headDim). No
// production code calls it: it stays as the reference that this package's
// tests hold the INT4 codes and the transposed key view of Keys to.
func (c *KVCache) DequantKeys(layer, head int) *tensor.Matrix {
	hd := c.cfg.HeadDim()
	tokens := len(c.keyScale[layer][head])
	m := tensor.NewMatrix(tokens, hd)
	for t := 0; t < tokens; t++ {
		s := c.keyScale[layer][head][t]
		for d := 0; d < hd; d++ {
			m.Set(t, d, float32(c.keyCodes[layer][head][d*c.cfg.MaxSeq+t])*s)
		}
	}
	return m
}
