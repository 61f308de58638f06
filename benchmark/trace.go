package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"os"
	"sort"
	"time"

	"mugi"
	"mugi/internal/runner"
	"mugi/internal/serve"
)

// callKind names a fine-grained public call the traced run aggregates per
// parent span instead of recording one span per call.
type callKind int

const (
	callSimulate callKind = iota // serve.StepFunc: the runner's step-cost cache
	callNext                     // serve.Stream.Next: trace generation
	callStep                     // infer.Engine.Step: one decoded token
	numCalls
)

// calls gives each call kind its layer and display name.
var calls = [numCalls]struct{ layer, name string }{
	callSimulate: {"runner", "runner.Simulate"},
	callNext:     {"trace", "serve.Stream.Next"},
	callStep:     {"infer", "infer.Step"},
}

// histBuckets covers 1 ns to about 2^40 ns (18 minutes) at four buckets
// per octave.
const histBuckets = 4 * 41

// callAgg aggregates one call kind under one span: count, total time and
// a fixed log-bucket histogram of call durations.
type callAgg struct {
	n     int64
	total time.Duration
	hist  [histBuckets]int64
}

func (a *callAgg) add(d time.Duration) {
	a.n++
	a.total += d
	a.hist[bucket(int64(d))]++
}

// bucket maps a duration in ns to its histogram bucket: the octave and
// the next two mantissa bits.
func bucket(ns int64) int {
	if ns < 1 {
		return 0
	}
	e := bits.Len64(uint64(ns)) - 1
	var sub int64
	if e >= 2 {
		sub = (ns >> (e - 2)) & 3
	} else {
		sub = (ns << (2 - e)) & 3
	}
	return min(4*e+int(sub), histBuckets-1)
}

// quantile returns the q-quantile of the aggregated durations in ns, at
// the midpoint of the bucket it falls in (resolution about 12%).
func (a *callAgg) quantile(q float64) float64 {
	if a.n == 0 {
		return 0
	}
	rank := int64(q*float64(a.n-1)) + 1
	var cum int64
	for b, c := range a.hist {
		cum += c
		if cum >= rank {
			e, sub := b/4, b%4
			lo := float64(uint64(1)<<e) * (1 + float64(sub)/4)
			hi := float64(uint64(1)<<e) * (1 + float64(sub+1)/4)
			return (lo + hi) / 2
		}
	}
	return 0
}

// span is one coarse call at a layer boundary.
type span struct {
	id, parent  int // parent is -1 for a unit's root span
	layer, name string
	start, end  time.Duration // since the tracer started
	calls       [numCalls]*callAgg
}

// tracer keeps a run's spans in memory. Spans nest in call order; the
// traced run is serial (parallelism 1), so the innermost open span is the
// caller of every aggregated call. A nil tracer records nothing, and its
// wrappers return the unwrapped defaults.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one and returns its id.
func (t *tracer) begin(layer, name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{id: id, parent: parent, layer: layer, name: name, start: time.Since(t.t0)})
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// call returns the aggregate of call kind k under the innermost open span.
func (t *tracer) call(k callKind) *callAgg {
	s := &t.spans[t.open[len(t.open)-1]]
	if s.calls[k] == nil {
		s.calls[k] = &callAgg{}
	}
	return s.calls[k]
}

// stepFunc returns the serving StepFunc: nil (the default, runner.Simulate)
// untraced, and a timing wrapper around runner.Simulate when tracing.
func (t *tracer) stepFunc() serve.StepFunc {
	if t == nil {
		return nil
	}
	return func(p mugi.SimParams, w mugi.Workload) mugi.SimResult {
		a := t.call(callSimulate)
		start := time.Now()
		r := runner.Simulate(p, w)
		a.add(time.Since(start))
		return r
	}
}

// stream returns src, wrapped to time every Next call when tracing.
func (t *tracer) stream(src serve.Stream) serve.Stream {
	if t == nil {
		return src
	}
	return &tracedStream{Stream: src, t: t}
}

type tracedStream struct {
	serve.Stream
	t *tracer
}

func (s *tracedStream) Next() (serve.Request, bool) {
	a := s.t.call(callNext)
	start := time.Now()
	r, ok := s.Stream.Next()
	a.add(time.Since(start))
	return r, ok
}

// callCount counts the calls of kind k aggregated under the spans
// recorded since index from.
func (t *tracer) callCount(from int, k callKind) int64 {
	var n int64
	for _, s := range t.spans[from:] {
		if a := s.calls[k]; a != nil {
			n += a.n
		}
	}
	return n
}

// layerTimes attributes the spans recorded since index from: it returns
// the total duration of the root (unit) spans, and per layer the sum of
// self times — a span's duration minus its child spans and aggregated
// calls — plus the time of the calls aggregated into that layer. The
// layer times sum to the root spans' duration.
func (t *tracer) layerTimes(from int) (units time.Duration, layers map[string]time.Duration) {
	layers = map[string]time.Duration{}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		d := s.end - s.start
		if s.parent < 0 {
			units += d
		} else {
			layers[t.spans[s.parent].layer] -= d
		}
		layers[s.layer] += d
		for k, a := range s.calls {
			if a != nil {
				layers[s.layer] -= a.total
				layers[calls[k].layer] += a.total
			}
		}
	}
	return units, layers
}

// writeChrome writes every span as a Chrome trace-event "complete" event
// (loadable in ui.perfetto.dev); each span's aggregated calls appear in
// its args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]any{"id": s.id, "parent": s.parent}
		for k, a := range s.calls {
			if a != nil {
				n := calls[k].name
				args[n+".calls"] = a.n
				args[n+".total_us"] = float64(a.total) / 1e3
				args[n+".p50_ns"] = a.quantile(0.5)
				args[n+".p99_ns"] = a.quantile(0.99)
			}
		}
		events = append(events, event{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}

// printLayerTable prints the traced run's per-layer table: each layer's
// self time per unit and share, each aggregated call's count and latency
// percentiles, then every per-layer metric.
func printLayerTable(w io.Writer, wl workload, t *tracer, triples int, units time.Duration, layers map[string]time.Duration, m map[string]metric) {
	fmt.Fprintf(w, "%s traced: %d units, %.4f s traced unit time\n", wl.name, triples, units.Seconds())
	names := make([]string, 0, len(layers))
	var sum time.Duration
	for l, d := range layers {
		names = append(names, l)
		sum += d
	}
	sort.Strings(names)
	fmt.Fprintf(w, "  %-20s %14s %8s\n", "layer", "self s/unit", "share")
	for _, l := range names {
		fmt.Fprintf(w, "  %-20s %14.6f %8.4f\n", l, layers[l].Seconds()/float64(triples), layers[l].Seconds()/units.Seconds())
	}
	fmt.Fprintf(w, "  layer self times sum to %.6f of the unit spans (trace_overhead %.4f)\n",
		sum.Seconds()/units.Seconds(), m["trace_overhead"].Value)
	var agg [numCalls]callAgg
	for _, s := range t.spans {
		for k, a := range s.calls {
			if a != nil {
				agg[k].n += a.n
				agg[k].total += a.total
				for b, c := range a.hist {
					agg[k].hist[b] += c
				}
			}
		}
	}
	for k := range agg {
		if a := &agg[k]; a.n > 0 {
			fmt.Fprintf(w, "  %-20s %d calls/unit  mean %.0f ns  p50 %.0f ns  p99 %.0f ns\n", calls[k].name,
				a.n/int64(triples), float64(a.total)/float64(a.n), a.quantile(0.5), a.quantile(0.99))
		}
	}
	for _, p := range perLayer {
		fmt.Fprintf(w, "  %-26s %16.6g %s\n", p.name, m[p.name].Value, p.unit)
	}
}
