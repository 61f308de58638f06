package serve

import (
	"sync"
	"sync/atomic"

	"mugi/internal/model"
)

// The process-wide step-shape memo, shared by every engine and the fleet
// router's demand estimator: with CtxBucket quantization the set of
// distinct shapes is small and reused across steps, runs and replicas,
// so no hot loop rebuilds an operator list. A workload carries its own
// shape (model, batch, context, decode), so it is its own key. Shapes
// hash onto 1024 copy-on-write shards of a few entries each: a hit is an
// atomic load and a short scan — no lock, no allocation — and a miss
// builds the workload under shapeMu and publishes a copy of its shard
// with the entry appended.
var (
	shapeShards [1 << 10]atomic.Pointer[[]*model.Workload]
	shapeMu     sync.Mutex
)

// StepWorkload returns the operator list of one quantized step shape: a
// prefill pass of batch requests over ctx prompt tokens, or a decode step
// of batch requests at context ctx. The result is memoized for the life
// of the process and shared by every caller, so it must be treated as
// read-only.
//
//mugi:noalloc
func StepWorkload(m model.Config, decode bool, batch, ctx int) model.Workload {
	h := uint64(ctx)<<32 ^ uint64(batch)<<1 ^ uint64(m.Hidden)<<16 ^ uint64(m.Layers)<<48
	if decode {
		h ^= 1
	}
	shard := &shapeShards[h*0x9e3779b97f4a7c15>>(64-10)]
	if ws := shard.Load(); ws != nil {
		for _, w := range *ws {
			if w.Decode == decode && w.Batch == batch && w.CtxLen == ctx && w.Model == m {
				return *w
			}
		}
	}
	return addShape(shard, m, decode, batch, ctx)
}

// addShape builds a shape missing from its shard and publishes it.
func addShape(shard *atomic.Pointer[[]*model.Workload], m model.Config, decode bool, batch, ctx int) model.Workload {
	shapeMu.Lock()
	defer shapeMu.Unlock()
	var old []*model.Workload
	if ws := shard.Load(); ws != nil {
		old = *ws
	}
	for _, w := range old {
		if w.Decode == decode && w.Batch == batch && w.CtxLen == ctx && w.Model == m {
			return *w
		}
	}
	var w model.Workload
	if decode {
		w = m.DecodeOps(batch, ctx)
	} else {
		w = m.PrefillOps(batch, ctx)
	}
	ws := append(old[:len(old):len(old)], &w)
	shard.Store(&ws)
	return w
}
