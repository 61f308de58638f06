package serve

import (
	"strings"
	"testing"

	"mugi/internal/raceflag"
)

// TestStreamMatchesMaterializedTrace: NewStream and NewTrace must yield
// identical requests, and a streamed run must render byte-identically to
// the materialized run — the guarantee that lets million-request sweeps
// drop the []Request without changing a single output byte.
func TestStreamMatchesMaterializedTrace(t *testing.T) {
	for _, kind := range TraceKinds() {
		cfg := TraceConfig{Kind: kind, Rate: 2, Requests: 64, Seed: 17}
		tr, err := NewTrace(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if src.Len() != len(tr.Requests) || src.Info() != tr.Info() {
			t.Fatalf("%v: stream identity mismatch", kind)
		}
		for i := range tr.Requests {
			r, ok := src.Next()
			if !ok || r != tr.Requests[i] {
				t.Fatalf("%v: stream request %d = %+v, trace has %+v", kind, i, r, tr.Requests[i])
			}
		}
		if _, ok := src.Next(); ok {
			t.Fatalf("%v: stream yields past Len", kind)
		}
	}

	cfg := TraceConfig{Kind: Diurnal, Rate: 1.5, Requests: 40, Seed: 23}
	tr, err := NewTrace(cfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := NewStream(cfg)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := RunStream(baseConfig(), src)
	if err != nil {
		t.Fatal(err)
	}
	if m, s := materialized.String(), streamed.String(); m != s {
		t.Errorf("streamed run diverges from materialized run:\n--- trace ---\n%s\n--- stream ---\n%s", m, s)
	}
}

// TestWarmSchedulerStepZeroAlloc is the zero-alloc acceptance assertion:
// once the pooled scheduler, its step-cost table and the sim cache are
// warm, a run's allocation count must not grow with its step count —
// doubling the trace adds thousands of scheduler steps and zero
// allocations, i.e. the steady-state step is 0 allocs/op. An absolute
// bound pins the small per-run constant (stream wrapper, closures,
// report assembly).
func TestWarmSchedulerStepZeroAlloc(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("sync.Pool reuse is randomized under the race detector")
	}
	cfg := baseConfig()
	short := chatTrace(t, 2, 40)
	long := chatTrace(t, 2, 80)
	run := func(tr Trace) {
		if _, err := Run(cfg, tr); err != nil {
			t.Fatal(err)
		}
	}
	// Warm everything: sim cache, scheduler pool and its step-cost table.
	run(short)
	run(long)
	shortAllocs := testing.AllocsPerRun(10, func() { run(short) })
	longAllocs := testing.AllocsPerRun(10, func() { run(long) })
	if longAllocs > shortAllocs+8 {
		t.Errorf("allocations grow with steps: %d requests -> %.1f allocs, %d requests -> %.1f allocs",
			short.Requests[len(short.Requests)-1].ID+1, shortAllocs,
			long.Requests[len(long.Requests)-1].ID+1, longAllocs)
	}
	if shortAllocs > 32 {
		t.Errorf("warm run allocates %.1f/op, want a small constant", shortAllocs)
	}
}

// TestReportRendersTPOTNA: a trace whose requests all produce a single
// output token has no TPOT population; the report must say n/a, not
// 0.000.
func TestReportRendersTPOTNA(t *testing.T) {
	tr := Trace{Kind: Poisson, Rate: 1, Requests: []Request{
		{ID: 0, Arrival: 0, Prompt: 64, Output: 1},
		{ID: 1, Arrival: 0.5, Prompt: 32, Output: 1},
		{ID: 2, Arrival: 1.1, Prompt: 48, Output: 1},
	}}
	rep, err := Run(baseConfig(), tr)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TPOT.Count != 0 {
		t.Fatalf("single-token outputs produced TPOT samples: %+v", rep.TPOT)
	}
	out := rep.String()
	if !strings.Contains(out, "TPOT     n/a") {
		t.Errorf("report renders zero TPOT instead of n/a:\n%s", out)
	}
	if strings.Contains(out, "TPOT     mean    0.000") {
		t.Errorf("report renders misleading 0.000 TPOT:\n%s", out)
	}
	// TTFT and latency populations are intact.
	if rep.TTFT.Count != 3 || rep.Latency.Count != 3 {
		t.Errorf("TTFT/latency counts: %+v %+v", rep.TTFT, rep.Latency)
	}
}

// TestQueueCompaction: the FIFO must reclaim its consumed prefix even
// when the queue never drains (sustained overload), keeping the backing
// slice O(backlog) — and must preserve FIFO order across compactions.
func TestQueueCompaction(t *testing.T) {
	e := &Engine{}
	next := int32(0)   // next value to push
	expect := int32(0) // next value qpop must yield
	// Interleave pushes and pops so the queue always holds ~64 entries
	// while tens of thousands of values flow through.
	for i := 0; i < 50_000; i++ {
		e.qpush(next)
		next++
		if e.QueueLen() > 64 {
			if got := e.qpop(); got != expect {
				t.Fatalf("qpop = %d, want %d (FIFO order broken by compaction)", got, expect)
			}
			expect++
		}
	}
	if c := cap(e.queue); c > 4096 {
		t.Errorf("queue backing slice grew to %d entries for a backlog of ~64", c)
	}
	for e.QueueLen() > 0 {
		if got := e.qpop(); got != expect {
			t.Fatalf("drain qpop = %d, want %d", got, expect)
		}
		expect++
	}
	if expect != next {
		t.Fatalf("drained %d values, pushed %d", expect, next)
	}
}

// TestRunStreamValidatesLazily: an invalid request aborts a streamed run
// with the same error Run reports.
func TestRunStreamValidatesLazily(t *testing.T) {
	bad := Trace{Kind: Poisson, Rate: 1, Requests: []Request{
		{ID: 0, Arrival: 0, Prompt: 16, Output: 4},
		{ID: 1, Arrival: 1, Prompt: 0, Output: 4}, // empty prompt
	}}
	if _, err := RunStream(baseConfig(), bad.Stream()); err == nil {
		t.Error("invalid mid-stream request must abort the run")
	}
}
