package main

import (
	"math"
	"sort"
)

// perLayer lists every per-layer metric a traced run reports, in the order
// of BENCHMARK.json. Each is reported on every workload; a layer the
// workload does not reach reads 0 in its shares and counters. A layer's
// time is reported as "<layer>.share", its share of the traced unit time,
// so every time-valued metric here is a probe that every workload
// measures.
var perLayer = []struct{ name, unit string }{
	{"trace_overhead", "ratio"},
	{"runner.scaling", "ratio"},
	{"go.allocs_per_unit", "count"},
	{"go.alloc_mb_per_unit", "MB"},
	{"go.gc_cpu_frac", "ratio"},
	{"sim.ns_per_pass", "ns"},
	{"runner.hit_ns", "ns"},
	{"runner.miss_ns", "ns"},
	{"core.gemm_us", "us"},
	{"core.softmax_us", "us"},
	{"nonlinear.act_us", "us"},
	{"bench.share", "ratio"},
	{"trace.share", "ratio"},
	{"serve.share", "ratio"},
	{"fleet.share", "ratio"},
	{"autoscale.static.share", "ratio"},
	{"autoscale.dynamic.share", "ratio"},
	{"capacity.share", "ratio"},
	{"minuteserve.share", "ratio"},
	{"minuteserve.verify.share", "ratio"},
	{"runner.share", "ratio"},
	{"infer.share", "ratio"},
	{"trace.next_calls", "count"},
	{"serve.steps", "count"},
	{"serve.mean_batch", "count"},
	{"serve.kv_deferred", "count"},
	{"runner.calls", "count"},
	{"runner.calls_per_item", "count"},
	{"runner.hits", "count"},
	{"runner.misses", "count"},
	{"runner.hit_ratio", "ratio"},
	{"runner.evictions", "count"},
	{"runner.resident", "count"},
	{"fleet.crashes", "count"},
	{"fleet.redispatched", "count"},
	{"fleet.shed", "count"},
	{"fleet.breaker_trips", "count"},
	{"overload.evicted", "count"},
	{"overload.degraded", "count"},
	{"overload.client_retries", "count"},
	{"capacity.probes", "count"},
	{"capacity.probes_per_cell", "count"},
	{"infer.token_match", "ratio"},
}

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of xs by the method of
// Python's statistics.quantiles(xs, n=4) (the default "exclusive"
// method, which extrapolates for tiny samples), the common way to state a
// benchmark's spread. With fewer than two values both quartiles are that
// value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
