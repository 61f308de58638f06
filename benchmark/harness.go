package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"mugi"
	"mugi/internal/runner"
)

const (
	// minUnits is the fewest timed units an end-to-end run measures, even
	// when one unit outlasts -seconds; the medians need at least three.
	minUnits = 3
	// minTriples is the fewest (untraced at nproc, untraced at 1, traced
	// at 1) unit triples a traced run measures.
	minTriples = 2
	// setupRuns is how many child processes time the set-up; setup_s is
	// their median.
	setupRuns = 3
	// digestUnits is how many leading units the digest covers. The count
	// is fixed, so the digest does not depend on how many units fit in a
	// run.
	digestUnits = 3
	// warmup is the index of the untimed warm-up unit. Its inputs do not
	// depend on -seed, so set-up does the same work on every seed.
	warmup = -1
)

// bench is one workload, set up and ready to run units.
type bench interface {
	// unit runs unit k (warmup, or 0, 1, ... in order) and records its
	// timed work, items, rendered reports and counters in u. An error
	// means the unit failed or its outputs failed a check.
	unit(k int, u *unitCtx) error
	// finish runs the checks that need a finished run, outside every
	// timed window, and returns any per-layer metrics they measure.
	finish() (map[string]float64, error)
}

// unitCtx collects what one unit did.
type unitCtx struct {
	// tr records spans; nil on untraced units, which run unwrapped.
	tr *tracer
	// elapsed sums the unit's timed windows; items counts the work they
	// finished.
	elapsed time.Duration
	items   float64
	// report holds the rendered simulated results: a simulator-speed
	// change must leave these bytes, and so the digest, unchanged.
	report bytes.Buffer
	// counts are the deterministic work counters the per-layer metrics
	// report.
	counts map[string]float64
	// checkStats is the cache traffic of untimed checks, which the runner
	// counters leave out.
	checkStats runner.Stats
	// goStart snapshots the runtime's allocation and GC accounting as the
	// unit starts; the next unit's snapshot minus this one is the unit's
	// work, including the collection of its garbage.
	goStart goStats
}

// timed runs f as one timed window of the unit, under a root span.
func (u *unitCtx) timed(f func() error) error {
	id := u.tr.begin("bench", "unit")
	start := time.Now()
	err := f()
	u.elapsed += time.Since(start)
	u.tr.end(id)
	return err
}

// untimed runs a check that may call the runner, keeping its cache
// traffic out of the unit's counters.
func (u *unitCtx) untimed(f func() error) error {
	before := runner.CacheStats()
	err := f()
	after := runner.CacheStats()
	u.checkStats.Hits += after.Hits - before.Hits
	u.checkStats.Misses += after.Misses - before.Misses
	u.checkStats.Evictions += after.Evictions - before.Evictions
	return err
}

// runUnit runs unit k of b from a cold simulation cache, as a fresh CLI
// run would, after a collection so each unit starts from the same heap.
func runUnit(b bench, k int, tr *tracer) (*unitCtx, error) {
	mugi.ResetSimCache()
	runtime.GC()
	u := &unitCtx{tr: tr, counts: map[string]float64{}, goStart: readGoStats()}
	err := b.unit(k, u)

	st := runner.CacheStats()
	hits := float64(st.Hits - u.checkStats.Hits)
	misses := float64(st.Misses - u.checkStats.Misses)
	calls := hits + misses
	u.counts["runner.calls"] = calls
	u.counts["runner.hits"] = hits
	u.counts["runner.misses"] = misses
	u.counts["runner.evictions"] = float64(st.Evictions - u.checkStats.Evictions)
	u.counts["runner.resident"] = float64(runner.CacheSize())
	if calls > 0 {
		u.counts["runner.hit_ratio"] = hits / calls
	}
	if u.items > 0 {
		u.counts["runner.calls_per_item"] = calls / u.items
	}
	return u, err
}

// setUp builds the workload's inputs and runs the warm-up unit, which
// fills the pools and lazy tables every later unit finds warm.
func setUp(w workload, o options) (bench, error) {
	runner.SetParallelism(o.parallel)
	b, err := w.setup(o.seed, o.scale)
	if err != nil {
		return nil, fmt.Errorf("set up %s: %w", w.name, err)
	}
	if _, err := runUnit(b, warmup, nil); err != nil {
		return nil, fmt.Errorf("%s warm-up unit: %w", w.name, err)
	}
	return b, nil
}

// measure sets the workload up in this process and runs it: the
// end-to-end run, or with -trace 1 the traced run. It returns the result
// and the digest of the leading units' reports.
func measure(w workload, o options, log io.Writer) (result, string, error) {
	b, err := setUp(w, o)
	if err != nil {
		return result{}, "", err
	}
	if o.trace == 1 {
		return measureTraced(w, b, o, log)
	}
	return measureEndToEnd(w, b, o, log)
}

// measureEndToEnd runs timed units until -seconds have passed and
// reports the end-to-end metrics: the median unit throughput, the peak
// resident memory, and the median set-up time of fresh processes.
func measureEndToEnd(w workload, b bench, o options, log io.Writer) (result, string, error) {
	res := result{Metrics: map[string]metric{}}
	dig := sha256.New()
	var rates []float64
	start := time.Now()
	for k := 0; k < minUnits || time.Since(start).Seconds() < o.seconds; k++ {
		u, err := runUnit(b, k, nil)
		res.Attempted++
		if err != nil {
			res.Failed++
			fmt.Fprintf(log, "%s unit %d failed: %v\n", w.name, k, err)
		}
		if u.elapsed > 0 {
			rates = append(rates, u.items/u.elapsed.Seconds())
		}
		if k < digestUnits {
			dig.Write(u.report.Bytes())
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, "", err
	}
	if _, err := b.finish(); err != nil {
		res.Failed++
		fmt.Fprintf(log, "%s check failed: %v\n", w.name, err)
	}
	setup, err := timeSetups(w, o, log)
	if err != nil {
		return result{}, "", err
	}
	res.Correct = res.Failed == 0
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["items_per_s"] = metric{median(rates), "1/s"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	q1, q3 := quartiles(rates)
	fmt.Fprintf(log, "%s: %d units, median %.6g [%.6g, %.6g] %s per s, set-up %.4g s, peak RSS %.1f MB\n",
		w.name, res.Attempted, median(rates), q1, q3, w.item, setup, rss)
	return res, hex.EncodeToString(dig.Sum(nil)), nil
}

// timeSetups times setupRuns fresh child processes of this binary from
// exec until each has set up and finished its warm-up unit — the wait a
// CLI user has before steady state — and returns the median in seconds.
func timeSetups(w workload, o options, log io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("locate own binary for set-up runs: %w", err)
	}
	args := []string{"-setup-only", "-workload", w.name,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64)}
	times := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, args...)
		cmd.Stderr = log
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("set-up run %d: %w", i, err)
		}
		times = append(times, time.Since(start).Seconds())
	}
	return median(times), nil
}

// measureTraced runs unit triples until -seconds have passed: the unit
// untraced with the full pool, untraced at parallelism 1, and
// traced at parallelism 1, where spans nest serially and self times are
// exact. The first gives the runtime counters, the first two give
// runner.scaling, the last two give trace_overhead, and the traced unit
// gives the layer shares and work counters. The three runs of a unit must
// render identical reports.
func measureTraced(w workload, b bench, o options, log io.Writer) (result, string, error) {
	res := result{Metrics: map[string]metric{}}
	dig := sha256.New()
	tr := newTracer()
	var overhead, scaling []float64
	counts := map[string][]float64{}
	layerTime := map[string]time.Duration{}
	var unitTime time.Duration
	var goSum goStats
	triples := 0
	start := time.Now()
	for k := 0; k < minTriples || time.Since(start).Seconds() < o.seconds; k++ {
		runner.SetParallelism(o.parallel)
		full, errFull := runUnit(b, k, nil)
		runner.SetParallelism(1)
		serial, errSerial := runUnit(b, k, nil)
		mark := len(tr.spans)
		traced, errTraced := runUnit(b, k, tr)
		runner.SetParallelism(o.parallel)

		res.Attempted += 3
		for _, err := range []error{errFull, errSerial, errTraced} {
			if err != nil {
				res.Failed++
				fmt.Fprintf(log, "%s unit %d failed: %v\n", w.name, k, err)
			}
		}
		if !bytes.Equal(full.report.Bytes(), serial.report.Bytes()) ||
			!bytes.Equal(full.report.Bytes(), traced.report.Bytes()) {
			res.Failed++
			fmt.Fprintf(log, "%s unit %d: reports differ across parallelism or tracing\n", w.name, k)
		}
		if k < digestUnits {
			dig.Write(full.report.Bytes())
		}
		triples++
		goSum = goSum.add(serial.goStart.sub(full.goStart))
		if full.elapsed > 0 && serial.elapsed > 0 {
			overhead = append(overhead, traced.elapsed.Seconds()/serial.elapsed.Seconds()-1)
			scaling = append(scaling, serial.elapsed.Seconds()/full.elapsed.Seconds())
		}
		units, layers := tr.layerTimes(mark)
		unitTime += units
		for l, d := range layers {
			layerTime[l] += d
		}
		traced.counts["trace.next_calls"] = float64(tr.callCount(mark, callNext))
		for name, v := range traced.counts {
			counts[name] = append(counts[name], v)
		}
	}
	extra, err := b.finish()
	if err != nil {
		res.Failed++
		fmt.Fprintf(log, "%s check failed: %v\n", w.name, err)
	}
	probes := runProbes(o.seed)

	m := map[string]float64{
		"trace_overhead":       median(overhead),
		"runner.scaling":       median(scaling),
		"go.allocs_per_unit":   goSum.allocs / float64(triples),
		"go.alloc_mb_per_unit": goSum.allocBytes / float64(triples) / (1 << 20),
		"go.gc_cpu_frac":       goSum.gcFraction(),
	}
	for name, v := range probes {
		m[name] = v
	}
	for layer, d := range layerTime {
		m[layer+".share"] = d.Seconds() / unitTime.Seconds()
	}
	for name, vs := range counts {
		m[name] = median(vs)
	}
	for name, v := range extra {
		m[name] = v
	}
	// Every per-layer metric is reported; one the workload never touched
	// reads 0.
	for _, p := range perLayer {
		res.Metrics[p.name] = metric{m[p.name], p.unit}
		delete(m, p.name)
	}
	for name := range m {
		return result{}, "", fmt.Errorf("metric %s is not a per-layer metric", name)
	}
	res.Correct = res.Failed == 0

	printLayerTable(log, w, tr, triples, unitTime, layerTime, res.Metrics)
	if o.spans != "" {
		if err := tr.writeChrome(o.spans); err != nil {
			return result{}, "", err
		}
	}
	return res, hex.EncodeToString(dig.Sum(nil)), nil
}

// peakRSSMB reads this process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, fmt.Errorf("read peak RSS: %w", err)
	}
	return 0, fmt.Errorf("read peak RSS: no VmHWM line in /proc/self/status")
}

// goStats is a snapshot (or difference) of the runtime's cumulative
// allocation and CPU accounting.
type goStats struct {
	allocs, allocBytes    float64
	gcCPU, totalCPU, idle float64
}

var goSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readGoStats samples the runtime metrics. The CPU classes are updated at
// each collection, which is why runUnit samples right after one.
func readGoStats() goStats {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		default:
			return 0
		}
	}
	return goStats{allocs: v(0), allocBytes: v(1), gcCPU: v(2), totalCPU: v(3), idle: v(4)}
}

func (g goStats) sub(o goStats) goStats {
	return goStats{g.allocs - o.allocs, g.allocBytes - o.allocBytes, g.gcCPU - o.gcCPU, g.totalCPU - o.totalCPU, g.idle - o.idle}
}

func (g goStats) add(o goStats) goStats {
	return goStats{g.allocs + o.allocs, g.allocBytes + o.allocBytes, g.gcCPU + o.gcCPU, g.totalCPU + o.totalCPU, g.idle + o.idle}
}

// gcFraction is the share of busy CPU time the garbage collector used.
func (g goStats) gcFraction() float64 {
	if busy := g.totalCPU - g.idle; busy > 0 {
		return g.gcCPU / busy
	}
	return 0
}
