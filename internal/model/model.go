// Package model describes the transformer workloads of the paper's Table 1
// — Llama-2 (7B/13B/70B, with and without GQA), Whisper (tiny/large),
// SwinV2 (tiny/large) and ViViT — and expands them into the per-layer
// operator graphs (projection / attention / FFN GEMMs plus nonlinears)
// that the architecture simulator maps onto hardware.
package model

import (
	"fmt"

	"mugi/internal/dist"
	"mugi/internal/nonlinear"
)

// Config is one studied model (paper Table 1).
type Config struct {
	// Name is the display name, e.g. "Llama 2 70B (GQA)".
	Name string
	// Family links the model to its profiled activation distributions.
	Family dist.Family
	// Layers is the number of transformer blocks.
	Layers int
	// AttnHeads and KVHeads give the attention geometry; GQA group size is
	// AttnHeads/KVHeads.
	AttnHeads, KVHeads int
	// Hidden is the model (attention hidden) dimension.
	Hidden int
	// FFN is the feed-forward hidden dimension.
	FFN int
	// MaxSeq is the maximum sequence length.
	MaxSeq int
	// Activation is the FFN nonlinearity (SiLU for Llama-2, GELU others).
	Activation nonlinear.Op
	// GatedFFN marks SwiGLU-style FFNs with gate+up+down projections
	// (Llama-2); others use up+down.
	GatedFFN bool
}

// HeadDim is the per-head dimension.
func (c *Config) HeadDim() int { return c.Hidden / c.AttnHeads }

// KVDim is the total key/value projection width.
func (c *Config) KVDim() int { return c.KVHeads * c.HeadDim() }

// GQAGroup is the number of query heads sharing one KV head.
func (c Config) GQAGroup() int { return c.AttnHeads / c.KVHeads }

// Params counts weight parameters (projection + FFN) across all layers;
// embeddings are excluded as they are not executed on the array.
func (c *Config) Params() int64 {
	h, f := int64(c.Hidden), int64(c.FFN)
	kv := int64(c.KVDim())
	perLayer := h*h + 2*h*kv + h*h // Q, K, V, O
	if c.GatedFFN {
		perLayer += 3 * h * f // gate, up, down
	} else {
		perLayer += 2 * h * f
	}
	return perLayer * int64(c.Layers)
}

// WeightBytes is the weight footprint at `bits` per parameter.
func (c *Config) WeightBytes(bits int) int64 {
	return c.Params() * int64(bits) / 8
}

// KVCacheBytes is the KV-cache footprint for the given batch and context
// length at `bits` per element.
func (c *Config) KVCacheBytes(batch, ctxLen, bits int) int64 {
	per := int64(2) * int64(c.KVDim()) * int64(c.Layers) // K and V per token
	return per * int64(batch) * int64(ctxLen) * int64(bits) / 8
}

// Validate checks internal consistency.
func (c Config) Validate() error {
	if c.Layers < 1 || c.AttnHeads < 1 || c.KVHeads < 1 || c.Hidden < 1 || c.FFN < 1 {
		return fmt.Errorf("model %q: non-positive dimension", c.Name)
	}
	if c.Hidden%c.AttnHeads != 0 {
		return fmt.Errorf("model %q: hidden %d not divisible by heads %d", c.Name, c.Hidden, c.AttnHeads)
	}
	if c.AttnHeads%c.KVHeads != 0 {
		return fmt.Errorf("model %q: heads %d not divisible by KV heads %d", c.Name, c.AttnHeads, c.KVHeads)
	}
	return nil
}

// The studied models (paper Table 1). SwinV2/ViViT attention geometry uses
// the dominant (final-stage) dimensions; their windowed attention is
// approximated by the profiled sequence lengths.
var (
	Llama2_7B = Config{
		Name: "Llama 2 7B", Family: dist.Llama2, Layers: 32,
		AttnHeads: 32, KVHeads: 32, Hidden: 4096, FFN: 11008,
		MaxSeq: 4096, Activation: nonlinear.SiLU, GatedFFN: true,
	}
	Llama2_13B = Config{
		Name: "Llama 2 13B", Family: dist.Llama2, Layers: 40,
		AttnHeads: 40, KVHeads: 40, Hidden: 5120, FFN: 13824,
		MaxSeq: 4096, Activation: nonlinear.SiLU, GatedFFN: true,
	}
	// Llama2_70B is the MHA variant (no GQA benefit), the "70B" column of
	// Figs. 12/15/16.
	Llama2_70B = Config{
		Name: "Llama 2 70B", Family: dist.Llama2, Layers: 80,
		AttnHeads: 64, KVHeads: 64, Hidden: 8192, FFN: 28672,
		MaxSeq: 4096, Activation: nonlinear.SiLU, GatedFFN: true,
	}
	// Llama2_70B_GQA uses 8 KV heads (group size 8), the "70B GQA" column.
	Llama2_70B_GQA = Config{
		Name: "Llama 2 70B (GQA)", Family: dist.Llama2, Layers: 80,
		AttnHeads: 64, KVHeads: 8, Hidden: 8192, FFN: 28672,
		MaxSeq: 4096, Activation: nonlinear.SiLU, GatedFFN: true,
	}
	WhisperTiny = Config{
		Name: "Whisper Tiny", Family: dist.Whisper, Layers: 4,
		AttnHeads: 6, KVHeads: 6, Hidden: 384, FFN: 1536,
		MaxSeq: 1500, Activation: nonlinear.GELU,
	}
	WhisperLarge = Config{
		Name: "Whisper Large", Family: dist.Whisper, Layers: 32,
		AttnHeads: 20, KVHeads: 20, Hidden: 1280, FFN: 5120,
		MaxSeq: 1500, Activation: nonlinear.GELU,
	}
	SwinV2Tiny = Config{
		Name: "SwinV2 Tiny", Family: dist.SwinV2, Layers: 12,
		AttnHeads: 24, KVHeads: 24, Hidden: 768, FFN: 3072,
		MaxSeq: 4096, Activation: nonlinear.GELU,
	}
	SwinV2Large = Config{
		Name: "SwinV2 Large", Family: dist.SwinV2, Layers: 24,
		AttnHeads: 48, KVHeads: 48, Hidden: 1536, FFN: 6144,
		MaxSeq: 4096, Activation: nonlinear.GELU,
	}
	ViViTBase = Config{
		Name: "ViViT Base", Family: dist.ViViT, Layers: 12,
		AttnHeads: 12, KVHeads: 12, Hidden: 768, FFN: 3072,
		MaxSeq: 3136, Activation: nonlinear.GELU,
	}
)

// LlamaModels lists the Llama-2 configurations used by the performance
// evaluation (Figs. 11-17, Table 3).
func LlamaModels() []Config {
	return []Config{Llama2_7B, Llama2_13B, Llama2_70B_GQA}
}

// AllModels lists every studied configuration.
func AllModels() []Config {
	return []Config{
		Llama2_7B, Llama2_13B, Llama2_70B, Llama2_70B_GQA,
		WhisperTiny, WhisperLarge, SwinV2Tiny, SwinV2Large, ViViTBase,
	}
}

// ByName finds a configuration by display name.
func ByName(name string) (Config, error) {
	for _, m := range AllModels() {
		if m.Name == name {
			return m, nil
		}
	}
	return Config{}, fmt.Errorf("model: unknown model %q", name)
}
