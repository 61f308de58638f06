// Package runner is the concurrent experiment/sweep engine. Regenerating
// the paper's evaluation is an embarrassingly parallel sweep over
// (design × mesh × model × batch × sequence) points. The package supplies
// two pieces:
//
//   - a bounded worker pool (Map) that fans independent work items across
//     at most as many goroutines as SetParallelism allows, with the caller
//     always participating so nested Map calls degrade to serial
//     execution instead of deadlocking;
//   - Simulate, the counted entry to sim.Simulate that experiments and
//     serving price their passes through. A pass allocates nothing and
//     costs less than encoding and hashing its inputs for a cache lookup
//     would, so no result is kept: each call is one pass, and the count
//     says how many a workload made.
//
// Determinism guarantee: Map assigns work by index and callers write
// results into index-addressed slots, and sim.Simulate is a pure function
// of its inputs — so every rendering that reads the computed values in
// index order produces byte-identical output at any parallelism level,
// including 1.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"

	"mugi/internal/model"
	"mugi/internal/sim"
)

// Point is one simulation work item, the inputs of sim.Simulate: the
// element of Prefetch's input.
type Point struct {
	Params   sim.Params
	Workload model.Workload
}

// Engine is a bounded worker pool.
type Engine struct {
	mu sync.Mutex
	// helpers holds parallelism-1 tokens; Map borrows helper goroutines
	// from it non-blockingly, so the total concurrency across nested calls
	// stays bounded by the configured parallelism.
	helpers chan struct{}
}

// New builds an engine with the given parallelism; n <= 0 selects
// runtime.GOMAXPROCS(0).
func New(n int) *Engine {
	e := &Engine{}
	e.SetParallelism(n)
	return e
}

// SetParallelism resizes the worker pool; n <= 0 selects
// runtime.GOMAXPROCS(0). It must not be called concurrently with Map.
func (e *Engine) SetParallelism(n int) {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.mu.Lock()
	e.helpers = make(chan struct{}, n-1)
	e.mu.Unlock()
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

// ---- Default engine ----

// defaultEngine is the process-wide pool the experiment generators and
// accuracy sweeps submit through.
var defaultEngine = New(0)

// SetParallelism resizes the default engine's pool.
func SetParallelism(n int) { defaultEngine.SetParallelism(n) }

// Map fans f(0..n-1) across the default pool.
func Map(n int, f func(i int)) { defaultEngine.Map(n, f) }

// calls counts Simulate calls since the last ResetCache.
var calls atomic.Uint64

// Simulate runs one sim.Simulate pass and counts it. It is serve's
// default step pricer and the entry every experiment simulates through.
func Simulate(p sim.Params, w model.Workload) sim.Result {
	calls.Add(1)
	return sim.Simulate(p, w)
}

// Prefetch simulates every point across the default pool and keeps no
// result. It stays only because benchmark/ times it.
func Prefetch(pts []Point) {
	Map(len(pts), func(i int) { Simulate(pts[i].Params, pts[i].Workload) })
}

// Stats is the call accounting CacheStats returns: Misses counts every
// Simulate call, and Hits and Evictions read 0. It stays only because
// benchmark/ reads it.
type Stats struct {
	Hits, Misses, Evictions uint64
}

// CacheStats returns the Simulate call count as Stats.Misses. It stays
// only because benchmark/ calls it.
func CacheStats() Stats { return Stats{Misses: calls.Load()} }

// CacheSize returns 0, since no result is kept. It stays only because
// benchmark/ calls it.
func CacheSize() int { return 0 }

// ResetCache zeroes the Simulate call count. It stays only because
// benchmark/ calls it, through mugi.ResetSimCache, to count each unit's
// calls.
func ResetCache() { calls.Store(0) }
