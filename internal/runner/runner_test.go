package runner

import (
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/model"
	"mugi/internal/noc"
	"mugi/internal/sim"
)

func TestMapCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		e := New(workers)
		const n = 100
		counts := make([]atomic.Int64, n)
		e.Map(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapZeroAndNegative(t *testing.T) {
	e := New(4)
	ran := false
	e.Map(0, func(int) { ran = true })
	e.Map(-3, func(int) { ran = true })
	if ran {
		t.Error("Map with n <= 0 must not invoke f")
	}
}

func TestNestedMapDoesNotDeadlock(t *testing.T) {
	e := New(2)
	var total atomic.Int64
	e.Map(4, func(int) {
		e.Map(4, func(int) { total.Add(1) })
	})
	if total.Load() != 16 {
		t.Fatalf("nested Map ran %d inner items, want 16", total.Load())
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	e := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("worker panic must reach the caller")
		}
	}()
	e.Map(8, func(i int) {
		if i == 3 {
			panic("boom")
		}
	})
}

func TestSetParallelism(t *testing.T) {
	e := New(0)
	if n := cap(e.helpers) + 1; n != runtime.GOMAXPROCS(0) {
		t.Fatalf("default parallelism %d, want GOMAXPROCS %d", n, runtime.GOMAXPROCS(0))
	}
	e.SetParallelism(7)
	if n := cap(e.helpers) + 1; n != 7 {
		t.Fatalf("parallelism %d, want 7", n)
	}
}

// TestResetCache: Simulate counts one call and Prefetch of n points n
// calls, and ResetCache zeroes the count.
func TestResetCache(t *testing.T) {
	ResetCache()
	Simulate(sim.Params{Design: arch.Mugi(128)}, model.Llama2_7B.DecodeOps(8, 128))
	if st := CacheStats(); st != (Stats{Misses: 1}) {
		t.Fatalf("one Simulate call counted as %+v", st)
	}
	pts := make([]Point, 37)
	for i := range pts {
		pts[i] = Point{
			Params:   sim.Params{Design: arch.Mugi(64 * (1 + i%4)), DVFS: arch.DVFSLadder()[i%3]},
			Workload: model.Llama2_7B.DecodeOps(1+i%8, 128),
		}
	}
	Prefetch(pts)
	if st := CacheStats(); st != (Stats{Misses: 1 + uint64(len(pts))}) {
		t.Fatalf("Prefetch of %d points after one Simulate counted as %+v", len(pts), st)
	}
	ResetCache()
	if st := CacheStats(); st != (Stats{}) {
		t.Fatalf("call count survived reset: %+v", st)
	}
}

// TestSimulateUnknownKindPanics: an unknown design kind panics in the
// simulator, and again on every later call with the same inputs.
func TestSimulateUnknownKindPanics(t *testing.T) {
	bogus := sim.Params{Design: arch.Design{Name: "bogus", Kind: 99, Rows: 8, Cols: 8}}
	w := model.Llama2_7B.DecodeOps(1, 128)
	mustPanic := func() (panicked bool) {
		defer func() { panicked = recover() != nil }()
		Simulate(bogus, w)
		return false
	}
	if !mustPanic() {
		t.Fatal("unknown design kind should panic in the simulator")
	}
	if !mustPanic() {
		t.Fatal("second call with an unknown design kind did not panic")
	}
}

func TestParallelSimulateMatchesSerial(t *testing.T) {
	// The same point grid computed serially and at parallelism 8 must
	// yield bit-identical results (pure functions + index-addressed
	// collection).
	designs := []arch.Design{arch.Mugi(128), arch.Carat(128), arch.SystolicArray(16, false)}
	batches := []int{1, 4, 8}
	point := func(i int) (sim.Params, model.Workload) {
		return sim.Params{Design: designs[i/len(batches)]},
			model.Llama2_7B.DecodeOps(batches[i%len(batches)], 256)
	}
	grid := func(e *Engine) []sim.Result {
		out := make([]sim.Result, len(designs)*len(batches))
		e.Map(len(out), func(i int) { out[i] = Simulate(point(i)) })
		return out
	}
	serial := grid(New(1))
	parallel := grid(New(8))
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Fatalf("cell %d: serial %+v != parallel %+v", i, serial[i], parallel[i])
		}
		if want := sim.Simulate(point(i)); !reflect.DeepEqual(serial[i], want) {
			t.Fatalf("cell %d: runner result %+v != sim.Simulate %+v", i, serial[i], want)
		}
	}
}

// TestSimulateHonorsNoCBandwidth: two calls differing only in the
// configured NoC bandwidth get different results — a starved mesh's
// throttled pass never answers for the healthy default provisioning.
func TestSimulateHonorsNoCBandwidth(t *testing.T) {
	w := model.Llama2_7B.DecodeOps(2, 256)
	mesh := noc.NewMesh(4, 4)
	starved := Simulate(sim.Params{Design: arch.Mugi(128), Mesh: mesh, NoCBandwidth: 1e6}, w)
	healthy := Simulate(sim.Params{Design: arch.Mugi(128), Mesh: mesh}, w)
	if !starved.NoCLimited {
		t.Fatal("1 MB/s NoC must throttle the pass")
	}
	if healthy.NoCLimited || healthy.Seconds == starved.Seconds {
		t.Errorf("healthy run returned the starved result: %+v", healthy)
	}
}
