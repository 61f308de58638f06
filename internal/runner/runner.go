// Package runner is the concurrent experiment/sweep engine. Regenerating
// the paper's evaluation is an embarrassingly parallel sweep over
// (design × mesh × model × batch × sequence) points, and many generators
// revisit identical points (Fig. 14 simulates every point once per metric;
// Table 3 and Fig. 13 share the Llama-2 70B GQA workload). The engine
// supplies the two pieces that exploit this:
//
//   - a bounded worker pool (Map) that fans independent work items across
//     at most Parallelism() goroutines, with the caller always
//     participating so nested Map calls degrade to serial execution
//     instead of deadlocking;
//   - a content-keyed, single-flight result cache over sim.Simulate, so an
//     identical (design, mesh, cost, bandwidth, workload) tuple is
//     computed exactly once per cache generation no matter how many
//     generators or workers request it. The cache is bounded by a
//     two-generation (young/old) scheme: when the young generation fills
//     to the configured capacity it becomes the old generation and the
//     previous old generation is dropped, so resident entries never
//     exceed ~2× capacity no matter how long a serving trace runs, while
//     recently- and frequently-used points (old-generation hits are
//     promoted back to young) survive rotation.
//
// Determinism guarantee: Map assigns work by index and callers write
// results into index-addressed slots, and sim.Simulate is a pure function
// of its inputs — so every rendering that reads the computed values in
// index order produces byte-identical output at any parallelism level,
// including 1.
package runner

import (
	"encoding/binary"
	"runtime"
	"sync"
	"sync/atomic"

	"mugi/internal/model"
	"mugi/internal/sim"
)

// Point is one simulation work item: the inputs of sim.Simulate.
type Point struct {
	Params   sim.Params
	Workload model.Workload
}

// DefaultCacheCapacity is the default per-generation entry bound of the
// simulation cache: two generations of this size fit every distinct point
// the full experiment registry produces with room to spare, while bounding
// a million-request serving trace to a few MB of resident results.
const DefaultCacheCapacity = 1 << 15

// Stats reports cache accounting for one engine.
type Stats struct {
	// Hits counts Simulate calls answered from the cache (including
	// calls that joined an in-flight computation).
	Hits uint64
	// Misses counts Simulate calls that computed a fresh result.
	Misses uint64
	// Evictions counts cached results dropped by generation rotation
	// (zero until a workload outgrows the configured capacity).
	Evictions uint64
}

// cacheEntry is a single-flight slot: the first requester computes, every
// later requester waits on the Once and reads the shared result. ok stays
// false if the computation panicked, so joiners never mistake the zero
// Result for a real one. key is retained so a panicking computation can
// unpoison its slot from whichever generation currently holds it.
type cacheEntry struct {
	once sync.Once
	res  sim.Result
	ok   bool
	key  string
}

// Engine combines the worker pool and the simulation cache.
type Engine struct {
	mu      sync.Mutex
	workers int
	// helpers holds workers-1 tokens; Map borrows helper goroutines from
	// it non-blockingly, so the total concurrency across nested calls
	// stays bounded by the configured parallelism.
	helpers chan struct{}
	// young/old are the two cache generations; lookups check young then
	// old (promoting old hits), inserts go to young, and filling young to
	// capacity rotates it into old, dropping the previous old generation.
	young, old map[string]*cacheEntry
	capacity   int
	// paramIDs interns each distinct sim.Params to the small id that
	// stands for it in cache keys, and ids interns each distinct
	// paramsKey rendering to that id — a handful of entries per process,
	// never rotated (they hold key encodings, not results).
	paramIDs  map[sim.Params]uint32
	ids       map[string]uint32
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

// New builds an engine with the given parallelism; n <= 0 selects
// runtime.GOMAXPROCS(0).
func New(n int) *Engine {
	e := &Engine{
		young:    map[string]*cacheEntry{},
		old:      map[string]*cacheEntry{},
		paramIDs: map[sim.Params]uint32{},
		ids:      map[string]uint32{},
		capacity: DefaultCacheCapacity,
	}
	e.SetParallelism(n)
	return e
}

// SetCacheCapacity bounds each cache generation at n entries (resident
// results stay under ~2n); n <= 0 restores DefaultCacheCapacity. A
// smaller capacity takes effect at the next insert's rotation check.
func (e *Engine) SetCacheCapacity(n int) {
	if n <= 0 {
		n = DefaultCacheCapacity
	}
	e.mu.Lock()
	e.capacity = n
	e.mu.Unlock()
}

// SetParallelism resizes the worker pool; n <= 0 selects
// runtime.GOMAXPROCS(0). It must not be called concurrently with Map.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	e.workers = n
	e.helpers = make(chan struct{}, n-1)
	e.mu.Unlock()
}

// Parallelism returns the configured worker count.
func (e *Engine) Parallelism() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.workers
}

// acquireHelpers borrows up to want helper tokens without blocking and
// returns the channel they came from plus how many it got. Nested Map
// calls find the pool drained and run on the caller alone — serial, never
// deadlocked. The channel is returned so release always drains the same
// pool generation even if SetParallelism swapped it mid-flight.
func (e *Engine) acquireHelpers(want int) (chan struct{}, int) {
	e.mu.Lock()
	sem := e.helpers
	e.mu.Unlock()
	got := 0
	for got < want {
		select {
		case sem <- struct{}{}:
			got++
		default:
			return sem, got
		}
	}
	return sem, got
}

// Map runs f(0..n-1) across the pool and returns when every index has been
// processed. The caller participates, so Map(n, f) with parallelism 1 is
// exactly the serial loop. A panic in any f is re-raised on the caller
// after the remaining workers drain.
func (e *Engine) Map(n int, f func(i int)) {
	if n <= 0 {
		return
	}
	sem, helpers := e.acquireHelpers(n - 1)
	defer func() {
		for i := 0; i < helpers; i++ {
			<-sem
		}
	}()

	var next atomic.Int64
	var panicked atomic.Value
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, panicValue{r})
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			f(i)
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < helpers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p, ok := panicked.Load().(panicValue); ok {
		panic(p.v)
	}
}

// panicValue wraps a recovered value so atomic.Value accepts any concrete
// type (including nil-interface-ish values) consistently.
type panicValue struct{ v any }

// Simulate is the cache-through simulator: it returns the cached result
// for an identical input tuple, computing it (exactly once, even under
// concurrent requests) on first use. A steady-state hit allocates
// nothing: the key is encoded into a pooled buffer (see key.go) and the
// generation maps are probed with zero-copy string conversions.
func (e *Engine) Simulate(p sim.Params, w model.Workload) sim.Result {
	p = p.WithDefaults()
	buf := keyBufPool.Get().(*[]byte)
	b := (*buf)[:0]

	e.mu.Lock()
	id, ok := e.paramIDs[p]
	if !ok {
		id = e.internLocked(p)
	}
	b = binary.LittleEndian.AppendUint32(b, id)
	b = appendWorkloadKey(b, &w)
	ent, hit := e.young[string(b)]
	if !hit {
		if prev, inOld := e.old[string(b)]; inOld {
			// Promote the old-generation hit so it survives the next
			// rotation.
			ent, hit = prev, true
			delete(e.old, prev.key)
			e.young[prev.key] = prev
			e.rotateLocked()
		}
	}
	if !hit {
		ent = &cacheEntry{key: string(b)}
		e.young[ent.key] = ent
		e.rotateLocked()
	}
	e.mu.Unlock()
	*buf = b
	keyBufPool.Put(buf)

	if hit {
		e.hits.Add(1)
	} else {
		e.misses.Add(1)
	}
	ent.once.Do(func() {
		// A panicking computation must not poison the slot: drop it so
		// later calls recompute instead of reading a zero Result.
		defer func() {
			if r := recover(); r != nil {
				e.mu.Lock()
				if e.young[ent.key] == ent {
					delete(e.young, ent.key)
				}
				if e.old[ent.key] == ent {
					delete(e.old, ent.key)
				}
				e.mu.Unlock()
				panic(r)
			}
		}()
		ent.res = sim.Simulate(p, w)
		ent.ok = true
	})
	if !ent.ok {
		// We joined a flight that panicked (the Once is burned but the
		// result never landed): compute directly, surfacing any panic to
		// this caller too.
		return sim.Simulate(p, w)
	}
	return ent.res
}

// internLocked assigns p the id of its paramsKey rendering, numbering
// renderings in first-seen order, and memoizes it. Callers hold e.mu.
func (e *Engine) internLocked(p sim.Params) uint32 {
	k := paramsKey(p)
	id, ok := e.ids[k]
	if !ok {
		id = uint32(len(e.ids))
		e.ids[k] = id
	}
	e.paramIDs[p] = id
	return id
}

// rotateLocked ages the young generation into old once it reaches
// capacity, dropping (and counting) the entries of the displaced old
// generation. Callers hold e.mu. In-flight computations in a dropped
// generation complete normally for their waiters; the results are simply
// no longer resident.
func (e *Engine) rotateLocked() {
	if len(e.young) < e.capacity {
		return
	}
	e.evictions.Add(uint64(len(e.old)))
	e.old = e.young
	e.young = make(map[string]*cacheEntry)
}

// Prefetch computes every point across the pool, warming the cache so a
// subsequent serial rendering pass is all hits. Duplicate points collapse
// onto one computation via the single-flight cache.
func (e *Engine) Prefetch(pts []Point) {
	e.Map(len(pts), func(i int) {
		e.Simulate(pts[i].Params, pts[i].Workload)
	})
}

// ResetCache drops every cached result (both generations) and zeroes the
// hit/miss/eviction counters. The interned params ids survive: they hold
// key encodings, not results.
func (e *Engine) ResetCache() {
	e.mu.Lock()
	e.young = map[string]*cacheEntry{}
	e.old = map[string]*cacheEntry{}
	e.mu.Unlock()
	e.hits.Store(0)
	e.misses.Store(0)
	e.evictions.Store(0)
}

// CacheStats returns the hit/miss/eviction counters.
func (e *Engine) CacheStats() Stats {
	return Stats{Hits: e.hits.Load(), Misses: e.misses.Load(), Evictions: e.evictions.Load()}
}

// CacheSize returns the number of resident cached points across both
// generations.
func (e *Engine) CacheSize() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.young) + len(e.old)
}

// ---- Default engine ----

// defaultEngine is the process-wide engine the experiment generators and
// accuracy sweeps submit through.
var defaultEngine = New(0)

// SetParallelism resizes the default engine's pool.
func SetParallelism(n int) { defaultEngine.SetParallelism(n) }

// Map fans f(0..n-1) across the default pool.
func Map(n int, f func(i int)) { defaultEngine.Map(n, f) }

// Simulate is the default engine's cache-through simulator.
func Simulate(p sim.Params, w model.Workload) sim.Result {
	return defaultEngine.Simulate(p, w)
}

// Prefetch warms the default cache across the pool.
func Prefetch(pts []Point) { defaultEngine.Prefetch(pts) }

// ResetCache clears the default engine's cache and counters.
func ResetCache() { defaultEngine.ResetCache() }

// CacheStats returns the default engine's hit/miss/eviction counters.
func CacheStats() Stats { return defaultEngine.CacheStats() }

// CacheSize returns the default engine's distinct cached point count.
func CacheSize() int { return defaultEngine.CacheSize() }
