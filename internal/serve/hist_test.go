package serve

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// exactPercentiles is the retain-all-then-sort reference the histogram
// replaced: exact nearest-rank percentiles over the full population.
func exactPercentiles(xs []float64) Percentiles {
	if len(xs) == 0 {
		return Percentiles{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := func(q float64) float64 {
		i := int(math.Ceil(q*float64(len(s)))) - 1
		if i < 0 {
			i = 0
		}
		return s[i]
	}
	var sum float64
	for _, x := range s {
		sum += x
	}
	return Percentiles{
		Count: int64(len(s)),
		Mean:  sum / float64(len(s)),
		P50:   rank(0.50), P95: rank(0.95), P99: rank(0.99),
		Max: s[len(s)-1],
	}
}

// histFrom builds a histogram over the samples.
func histFrom(xs []float64) *Hist {
	var h Hist
	for _, x := range xs {
		h.Add(x)
	}
	return &h
}

// oneBucket is the histogram's contract: a grid-resolved percentile lies
// within one log-bucket of the exact nearest-rank value.
func oneBucket(got, want float64) bool {
	if want <= 0 {
		return got == want
	}
	return math.Abs(math.Log(got)-math.Log(want)) <= histWidth
}

// TestHistogramGoldenAgainstNearestRank pins the histogram percentiles
// within one bucket of the exact nearest-rank values on the inter-arrival
// populations of seeded poisson/bursty/diurnal traces — realistic
// heavy-tailed second-scale data spanning several decades.
func TestHistogramGoldenAgainstNearestRank(t *testing.T) {
	for _, kind := range TraceKinds() {
		tr, err := NewTrace(TraceConfig{Kind: kind, Rate: 3, Requests: 500, Seed: 21})
		if err != nil {
			t.Fatal(err)
		}
		gaps := make([]float64, 0, len(tr.Requests)-1)
		for i := 1; i < len(tr.Requests); i++ {
			gaps = append(gaps, tr.Requests[i].Arrival-tr.Requests[i-1].Arrival)
		}
		got := histFrom(gaps).Percentiles()
		want := exactPercentiles(gaps)
		if got.Count != want.Count {
			t.Fatalf("%v: count %d != %d", kind, got.Count, want.Count)
		}
		// Mean and Max are exact by construction.
		if math.Abs(got.Mean-want.Mean) > 1e-12*math.Abs(want.Mean) {
			t.Errorf("%v: mean %g != exact %g", kind, got.Mean, want.Mean)
		}
		if got.Max != want.Max {
			t.Errorf("%v: max %g != exact %g", kind, got.Max, want.Max)
		}
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"p50", got.P50, want.P50},
			{"p95", got.P95, want.P95},
			{"p99", got.P99, want.P99},
		} {
			if !oneBucket(c.got, c.want) {
				t.Errorf("%v %s: hist %g vs exact %g exceeds one bucket (%.3f%%)",
					kind, c.name, c.got, c.want, (math.Exp(histWidth)-1)*100)
			}
		}
	}
}

// TestHistogramEdgeCases: empty, single-sample, constant, and
// out-of-grid populations.
func TestHistogramEdgeCases(t *testing.T) {
	if p := (&Hist{}).Percentiles(); p != (Percentiles{}) {
		t.Errorf("empty histogram: %+v", p)
	}
	one := histFrom([]float64{0.123}).Percentiles()
	if one.Count != 1 || one.Mean != 0.123 || one.Max != 0.123 {
		t.Errorf("single sample: %+v", one)
	}
	if !oneBucket(one.P50, 0.123) || one.P99 != one.P50 {
		t.Errorf("single-sample percentiles: %+v", one)
	}
	flat := histFrom([]float64{2, 2, 2, 2}).Percentiles()
	if flat.P50 != flat.P99 || !oneBucket(flat.P50, 2) {
		t.Errorf("constant population: %+v", flat)
	}
	// Clamping: percentiles never escape the exact [min, max] envelope.
	tiny := histFrom([]float64{1e-9, 1e-9, 1e-9}).Percentiles()
	if tiny.P50 != 1e-9 || tiny.Max != 1e-9 {
		t.Errorf("sub-grid population must clamp to exact extremes: %+v", tiny)
	}
	huge := histFrom([]float64{1e7}).Percentiles()
	if huge.P99 != 1e7 {
		t.Errorf("super-grid population must clamp to exact max: %+v", huge)
	}
}

// TestHistogramBoundaryRanks pins quantiles whose nearest rank falls
// exactly on, and one past, a bucket boundary against the exact
// nearest-rank reference. Samples sit at bucket midpoints so the grid
// resolution is exact and the comparison is bit-for-bit.
func TestHistogramBoundaryRanks(t *testing.T) {
	lo, hi := histValue(900), histValue(901)
	for _, tc := range []struct {
		name     string
		nLo, nHi int
	}{
		// p50's rank (50) is the last low-bucket sample.
		{"rank on boundary", 50, 50},
		// p50's rank (50) is the first high-bucket sample.
		{"rank past boundary", 49, 51},
	} {
		xs := make([]float64, 0, tc.nLo+tc.nHi)
		for i := 0; i < tc.nLo; i++ {
			xs = append(xs, lo)
		}
		for i := 0; i < tc.nHi; i++ {
			xs = append(xs, hi)
		}
		got := histFrom(xs).Percentiles()
		want := exactPercentiles(xs)
		if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
			t.Errorf("%s: hist p50/p95/p99 %g/%g/%g vs exact %g/%g/%g",
				tc.name, got.P50, got.P95, got.P99, want.P50, want.P95, want.P99)
		}
	}
}

// TestHistogramCountOverflow: populations past uint32 (the per-bucket
// counter width) must still rank correctly — the cumulative walk in
// Percentiles runs in int64, so two full buckets of math.MaxUint32
// samples each resolve their quantiles without wrapping. Built by direct
// construction; feeding 8.6 billion Add calls is not a unit test.
func TestHistogramCountOverflow(t *testing.T) {
	const full = math.MaxUint32
	a := histBucket(1.0)
	lo, hi := histValue(a), histValue(a+1)
	var h Hist
	h.counts[a] = full
	h.counts[a+1] = full
	h.n = 2 * int64(full)
	h.min, h.max = lo, hi
	h.sum = lo*float64(full) + hi*float64(full)

	p := h.Percentiles()
	if p.Count != h.n {
		t.Fatalf("count %d, want %d", p.Count, h.n)
	}
	// p50's nearest rank is exactly the last sample of the low bucket —
	// the boundary case at uint32 scale — while p95/p99 land in the high
	// bucket. A uint32 walk would wrap at the boundary and misrank all
	// three.
	if p.P50 != lo {
		t.Errorf("p50 %g, want low-bucket midpoint %g", p.P50, lo)
	}
	if p.P95 != hi || p.P99 != hi {
		t.Errorf("p95/p99 %g/%g, want high-bucket midpoint %g", p.P95, p.P99, hi)
	}
	if p.Max != hi {
		t.Errorf("max %g, want %g", p.Max, hi)
	}
}

// TestHistogramMonotone: quantile ordering must survive the grid.
func TestHistogramMonotone(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Kind: Bursty, Rate: 2, Requests: 300, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	gaps := make([]float64, 0, len(tr.Requests)-1)
	for i := 1; i < len(tr.Requests); i++ {
		gaps = append(gaps, tr.Requests[i].Arrival-tr.Requests[i-1].Arrival)
	}
	p := histFrom(gaps).Percentiles()
	if !(p.P50 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max) {
		t.Errorf("percentiles not monotone: %+v", p)
	}
}

// TestHistMergePreservesPopulation is the merge property test: splitting
// one population across k histograms in any interleaving and merging
// them back must preserve Count and Max exactly, the mean to within
// floating-point summation order, and every percentile bit-identically
// (bucket counts add exactly on the shared grid).
func TestHistMergePreservesPopulation(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(4000)
		k := 1 + rng.Intn(7)
		var whole Hist
		parts := make([]Hist, k)
		for i := 0; i < n; i++ {
			// Log-uniform samples spanning the grid, quantized to 2^-20 so
			// partial sums are exact in float64 and the mean check is
			// order-independent.
			x := math.Exp(rng.Float64()*20 - 10)
			x = math.Round(x*(1<<20)) / (1 << 20)
			if x == 0 {
				x = 1.0 / (1 << 20)
			}
			whole.Add(x)
			parts[rng.Intn(k)].Add(x)
		}
		var merged Hist
		for i := range parts {
			merged.Merge(&parts[i])
		}
		got, want := merged.Percentiles(), whole.Percentiles()
		if got.Count != want.Count {
			t.Fatalf("trial %d: merged count %d, want %d", trial, got.Count, want.Count)
		}
		if got.Max != want.Max {
			t.Fatalf("trial %d: merged max %v, want %v", trial, got.Max, want.Max)
		}
		if got.Mean != want.Mean {
			t.Fatalf("trial %d: merged mean %v, want %v", trial, got.Mean, want.Mean)
		}
		if got.P50 != want.P50 || got.P95 != want.P95 || got.P99 != want.P99 {
			t.Fatalf("trial %d: merged percentiles %+v, want %+v", trial, got, want)
		}
	}
}

// TestHistMergeEmpty covers the merge identities: empty-into-populated
// and populated-into-empty.
func TestHistMergeEmpty(t *testing.T) {
	var a, b, empty Hist
	a.Add(0.5)
	a.Merge(&empty)
	if a.Count() != 1 {
		t.Errorf("merging empty changed count to %d", a.Count())
	}
	b.Merge(&a)
	if got := b.Percentiles(); got != a.Percentiles() {
		t.Errorf("merge into empty: %+v != %+v", got, a.Percentiles())
	}
}

// TestHistogramInfinities: samples off the grid rank where their values
// put them. +Inf lands in the top bucket like any sample at or above
// histMax, so {1, 2, +Inf} reports what {1, 2, 1e9} does (P50 2.003 s,
// P99 993,277 s), not a P50 of 1.007 s with +Inf ranked below both
// finite samples. -Inf ranks below them, and NaN lands in bucket 0.
func TestHistogramInfinities(t *testing.T) {
	inf := math.Inf(1)
	top := histValue(histBuckets - 1)
	at := func(x float64) float64 { return histValue(histBucket(x)) }
	for _, tc := range []struct {
		name     string
		xs       []float64
		p50, p99 float64
	}{
		{"+Inf", []float64{1, 2, inf}, at(2), top},
		{"+Inf first", []float64{inf, 2, 1}, at(2), top},
		{"huge finite", []float64{1, 2, 1e9}, at(2), top},
		{"at histMax", []float64{1, 2, histMax}, at(2), top},
		// P99 resolves to 2's bucket midpoint, clamped to the exact max.
		{"-Inf", []float64{-inf, 1, 2}, at(1), 2},
		// NaN counts in bucket 0, below both finite samples.
		{"NaN", []float64{1, 2, math.NaN()}, at(1), 2},
	} {
		p := histFrom(tc.xs).Percentiles()
		if p.P50 != tc.p50 || p.P99 != tc.p99 {
			t.Errorf("%s %v: p50/p99 %g/%g, want %g/%g", tc.name, tc.xs, p.P50, p.P99, tc.p50, tc.p99)
		}
	}
	if got := histBucket(inf); got != histBuckets-1 {
		t.Errorf("histBucket(+Inf) = %d, want the top bucket %d", got, histBuckets-1)
	}
	if got := histBucket(math.NaN()); got != 0 {
		t.Errorf("histBucket(NaN) = %d, want 0", got)
	}
}

// edgeSamples are the values around the grid's edges and its bucket
// boundaries: the special values, the grid's bounds and every interior
// bucket edge with its neighbouring floats.
func edgeSamples() []float64 {
	xs := []float64{math.Inf(-1), -1e300, -1, 0, 1e-300, 1e-9, math.Inf(1), 1e300}
	for _, x := range []float64{histMin, histMax} {
		xs = append(xs, math.Nextafter(x, 0), x, math.Nextafter(x, math.Inf(1)))
	}
	for k := 1; k < histBuckets; k++ {
		e := math.Exp(histLogMin + float64(k)*histWidth)
		xs = append(xs, math.Nextafter(e, 0), e, math.Nextafter(e, math.Inf(1)))
	}
	return xs
}

// TestHistBucketMonotone: histBucket never decreases along the ordered
// non-NaN line, edge values included. The span walks rely on it: every
// sample's bucket lies between the buckets of the exact min and max.
func TestHistBucketMonotone(t *testing.T) {
	xs := edgeSamples()
	rng := rand.New(rand.NewSource(3))
	for range 10000 {
		xs = append(xs, math.Exp(rng.Float64()*40-20))
	}
	sort.Float64s(xs)
	for i := 1; i < len(xs); i++ {
		if a, b := histBucket(xs[i-1]), histBucket(xs[i]); a > b {
			t.Fatalf("histBucket(%g) = %d > histBucket(%g) = %d", xs[i-1], a, xs[i], b)
		}
	}
}

// wholeMerge and wholePercentiles are Merge and Percentiles walking
// every bucket of the grid, as they did before the span walk: the
// reference the span-bounded versions must match bit for bit.
func wholeMerge(h, o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		*h = *o
		return
	}
	for i := range h.counts {
		h.counts[i] += o.counts[i]
	}
	h.n += o.n
	h.sum += o.sum
	if o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

func wholePercentiles(h *Hist) Percentiles {
	if h.n == 0 {
		return Percentiles{}
	}
	p := Percentiles{Count: h.n, Mean: h.sum / float64(h.n), Max: h.max}
	ranks := [3]int64{nearestRank(0.50, h.n), nearestRank(0.95, h.n), nearestRank(0.99, h.n)}
	var vals [3]float64
	var cum int64
	next := 0
	for i := 0; i < histBuckets && next < len(ranks); i++ {
		cum += int64(h.counts[i])
		for next < len(ranks) && cum >= ranks[next] {
			vals[next] = h.clamp(histValue(i))
			next++
		}
	}
	p.P50, p.P95, p.P99 = vals[0], vals[1], vals[2]
	return p
}

// sameHist reports whether two histograms hold the same state, every
// float compared bit for bit (so NaN equals NaN).
func sameHist(a, b *Hist) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.counts == b.counts && a.n == b.n && same(a.sum, b.sum) && same(a.min, b.min) && same(a.max, b.max)
}

// samePercentiles compares two summaries bit for bit.
func samePercentiles(a, b Percentiles) bool {
	return fmt.Sprintf("%#v", a) == fmt.Sprintf("%#v", b)
}

// TestHistSpanMatchesWholeGrid holds the span walks to the whole-grid
// reference on random populations: log-uniform latencies mixed with 0,
// negatives, values below histMin and at or above histMax, ±Inf, NaN,
// exact bucket edges and midpoints, split into parts some of which are
// empty. Merge must leave the state the reference leaves and
// Percentiles must report what the reference reports, into a fresh
// histogram and into ones reused across trials after a reset or a copy.
func TestHistSpanMatchesWholeGrid(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	edges := edgeSamples()
	special := []float64{0, -1, -3e-3, 1e-9, 5e-7, histMax, 2e6, 1e300, math.Inf(1), math.Inf(-1), math.NaN()}
	draw := func(mix float64) float64 {
		switch u := rng.Float64(); {
		case u < mix:
			return special[rng.Intn(len(special))]
		case u < 2*mix:
			return edges[rng.Intn(len(edges))]
		case u < 3*mix:
			return histValue(rng.Intn(histBuckets))
		default:
			return math.Exp(rng.Float64()*12 - 8)
		}
	}
	var reused, acc Hist
	for trial := range 2000 {
		// A third of the trials draw no special value, so spans narrower
		// than the grid are common; the rest mix them in.
		mix := []float64{0, 0.02, 0.15}[trial%3]
		parts := make([]Hist, 1+rng.Intn(4))
		var all []float64
		for i := range parts {
			if rng.Intn(4) == 0 {
				continue // an empty part
			}
			for range 1 + rng.Intn(40) {
				x := draw(mix)
				parts[i].Add(x)
				all = append(all, x)
			}
		}
		var merged, want Hist
		acc.reset()
		for i := range parts {
			if got, ref := parts[i].Percentiles(), wholePercentiles(&parts[i]); !samePercentiles(got, ref) {
				t.Fatalf("trial %d part %d: percentiles %#v, whole grid %#v", trial, i, got, ref)
			}
			merged.Merge(&parts[i])
			acc.Merge(&parts[i])
			wholeMerge(&want, &parts[i])
		}
		if !sameHist(&merged, &want) || !sameHist(&acc, &want) {
			t.Fatalf("trial %d: span merge differs from the whole-grid merge of %v", trial, all)
		}
		if got, ref := merged.Percentiles(), wholePercentiles(&want); !samePercentiles(got, ref) {
			t.Fatalf("trial %d: merged percentiles %#v, whole grid %#v", trial, got, ref)
		}
		// A reset histogram refilled sample by sample equals a fresh one,
		// and a copy over the last trial's contents equals its source.
		reused.reset()
		for _, x := range all {
			reused.Add(x)
		}
		if !sameHist(&reused, histFrom(all)) {
			t.Fatalf("trial %d: a reset histogram refilled differs from a fresh one", trial)
		}
		reused.set(&merged)
		if !sameHist(&reused, &merged) {
			t.Fatalf("trial %d: a copy differs from its source", trial)
		}
	}
}

// TestHistMergeEmptyIntoReset: merging into a reset histogram, or
// merging an empty one, leaves what a fresh histogram would hold.
func TestHistMergeEmptyIntoReset(t *testing.T) {
	var h, empty Hist
	for _, x := range []float64{1e-5, 3, 4e4} {
		h.Add(x)
	}
	h.reset()
	if !sameHist(&h, &Hist{}) {
		t.Fatal("reset left state behind")
	}
	h.Merge(&empty)
	if !sameHist(&h, &Hist{}) {
		t.Fatal("merging an empty histogram into an empty one changed it")
	}
	o := histFrom([]float64{0.5, 2})
	h.Merge(o)
	if !sameHist(&h, o) {
		t.Fatal("merging into a reset histogram did not copy the source")
	}
}
