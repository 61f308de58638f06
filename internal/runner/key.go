package runner

import (
	"fmt"
	"strconv"
	"strings"
	"sync"

	"mugi/internal/model"
	"mugi/internal/sim"
)

// Cache-key encoding. The key canonicalizes the full simulation input:
// every Design, CostTable and Mesh field, both bandwidths, and the
// complete operator list (class, shape, precision, repetition) — not just
// the model name, since generators simulate stripped and MoE-modified
// workloads.
//
// The encoding is split for speed, because sweeps call Simulate millions
// of times:
//
//   - the sim.Params half (design, mesh, cost table, bandwidths) is
//     rendered once per distinct Params value via fmt (%+v covers every
//     field of nested structs automatically) and interned to a 4-byte id
//     in first-seen order, so a key carries the id, not the ~750-byte
//     rendering; distinct renderings get distinct ids, and the id is
//     memoized per comparable Params value — a handful of entries per
//     process;
//   - the model.Workload half is appended field by field into a pooled
//     byte buffer with strconv, no reflection and no allocation.
//
// A steady-state cache hit therefore allocates nothing: the buffer comes
// from a pool and the map lookup uses the compiler's zero-copy
// map[string(bytes)] form. The hand-written workload encoder is pinned to
// the exact field sets of model.Workload/Op/Config by
// TestKeyEncoderCoversEveryField, so adding a field without extending the
// encoder fails the build's tests rather than silently aliasing cache
// entries.

// keyBufPool recycles key-encoding buffers across Simulate calls.
var keyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 1024)
		return &b
	},
}

// paramsKey renders the sim.Params half of the cache key, one field per
// line so tools/mugivet's cachekey analyzer can name exactly which field
// a future edit drops. Called once per distinct Params value (the id the
// rendering interns to is memoized in Engine.paramIDs). DVFS is always
// the zero point here — Simulate keys Params after WithDefaults folds it
// into Cost — but it is encoded anyway so the key stays collision-free
// even if that fold ever moves.
//
//mugi:cachekey sim.Params
func paramsKey(p sim.Params) string {
	var b strings.Builder
	b.Grow(512)
	fmt.Fprintf(&b, "%+v|", p.Design)
	fmt.Fprintf(&b, "%+v|", p.Mesh)
	fmt.Fprintf(&b, "%g|", p.Bandwidth)
	fmt.Fprintf(&b, "%g|", p.NoCBandwidth)
	fmt.Fprintf(&b, "%+v|", p.Cost)
	fmt.Fprintf(&b, "%+v|", p.DVFS)
	return b.String()
}

// appendWorkloadKey appends the model.Workload half of the cache key.
// Strings are length-prefixed so no delimiter collision can alias two
// distinct workloads.
//
//mugi:cachekey model.Workload model.Config model.Op
//mugi:noalloc
func appendWorkloadKey(b []byte, w *model.Workload) []byte {
	b = appendKeyString(b, w.Model.Name)
	b = appendKeyString(b, string(w.Model.Family))
	b = appendKeyInt(b, int64(w.Model.Layers))
	b = appendKeyInt(b, int64(w.Model.AttnHeads))
	b = appendKeyInt(b, int64(w.Model.KVHeads))
	b = appendKeyInt(b, int64(w.Model.Hidden))
	b = appendKeyInt(b, int64(w.Model.FFN))
	b = appendKeyInt(b, int64(w.Model.MaxSeq))
	b = appendKeyInt(b, int64(w.Model.Activation))
	b = appendKeyBool(b, w.Model.GatedFFN)
	b = appendKeyInt(b, int64(w.Batch))
	b = appendKeyInt(b, int64(w.CtxLen))
	b = appendKeyBool(b, w.Decode)
	b = appendKeyInt(b, w.WeightStreamBytes)
	b = appendKeyInt(b, int64(len(w.Ops)))
	for i := range w.Ops {
		op := &w.Ops[i]
		b = appendKeyInt(b, int64(op.Class))
		b = appendKeyString(b, op.Name)
		b = appendKeyInt(b, int64(op.M))
		b = appendKeyInt(b, int64(op.K))
		b = appendKeyInt(b, int64(op.N))
		b = appendKeyInt(b, int64(op.WeightBits))
		b = appendKeyInt(b, int64(op.Repeat))
		b = appendKeyInt(b, int64(op.Elements))
		b = appendKeyInt(b, int64(op.NL))
		b = appendKeyBool(b, op.GQAPacked)
	}
	return b
}

func appendKeyInt(b []byte, v int64) []byte {
	b = strconv.AppendInt(b, v, 10)
	return append(b, ',')
}

func appendKeyBool(b []byte, v bool) []byte {
	if v {
		return append(b, 't', ',')
	}
	return append(b, 'f', ',')
}

func appendKeyString(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return append(b, ',')
}
