package serve

import "math"

// The latency histograms use a fixed logarithmic grid so Report memory is
// O(buckets) instead of O(requests): histBuckets buckets span
// [histMin, histMax) seconds with uniform width in log space. The grid is
// a compile-time constant, so two runs that feed identical samples — at
// any runner parallelism — produce bit-identical percentiles, the same
// determinism contract the rest of the scheduler makes. Twelve decades
// over 2048 buckets give a bucket width of ~1.4% relative, which is the
// histogram's worst-case percentile error (golden-tested against exact
// nearest-rank in hist_test.go).
const (
	histBuckets = 2048
	histMin     = 1e-6
	histMax     = 1e6
)

var (
	histLogMin = math.Log(histMin)
	// histInvWidth converts a log-seconds offset into a bucket index.
	histInvWidth = histBuckets / (math.Log(histMax) - histLogMin)
	// histWidth is one bucket's span in log space.
	histWidth = (math.Log(histMax) - histLogMin) / histBuckets
)

// Hist accumulates one latency population on the fixed log grid. Mean,
// min and max are tracked exactly; the ranked percentiles resolve to the
// geometric midpoint of the bucket holding the nearest-rank sample.
// Because every Hist shares the same compile-time grid, populations
// accumulated on different replicas merge losslessly (Merge), which is
// what lets internal/fleet combine per-replica runs into one fleet-level
// report without retaining samples.
//
// Every sample lies in a bucket between those of the exact min and max,
// the population's span, so Merge, Percentiles and the package's reset
// and copy helpers touch only the span's buckets, never the whole grid:
// a 32-request population spanning two decades occupies about 340 of
// the 2048. Refilling a kept Hist therefore costs its span, and only a
// copy by value pays for the whole grid.
type Hist struct {
	counts   [histBuckets]uint32
	n        int64
	sum      float64
	min, max float64
}

// Add records one sample in seconds. Samples outside the grid clamp to
// the edge buckets; min/max stay exact regardless.
//
//mugi:noalloc
func (h *Hist) Add(x float64) {
	h.n++
	h.sum += x
	if h.n == 1 || x < h.min {
		h.min = x
	}
	if x > h.max {
		h.max = x
	}
	h.counts[histBucket(x)]++
}

// Count is the population size.
func (h *Hist) Count() int64 { return h.n }

// Merge folds another population into h, bucket by bucket over o's
// span. The shared fixed grid makes this exact: the merged histogram is
// bit-identical to one that had seen every sample directly (up to
// floating-point addition order in the mean's running sum), and count,
// min and max are exact.
//
//mugi:noalloc
func (h *Hist) Merge(o *Hist) {
	if o.n == 0 {
		return
	}
	if h.n == 0 {
		h.set(o)
		return
	}
	lo, hi := o.span()
	for i, c := range o.counts[lo : hi+1] {
		h.counts[lo+i] += c
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

// span is the inclusive bucket range [lo, hi] that holds every sample
// of the population: from the bucket of the exact min to that of the
// exact max (which Add starts at 0, so it is never below a sample's
// bucket). histBucket is monotone on every non-NaN input, so no sample
// lies outside it. A NaN sample lands in bucket 0 whatever the min is,
// and makes the sum NaN, so a population whose sum is NaN spans the
// whole grid. An empty population spans nothing (hi < lo).
//
//mugi:noalloc
func (h *Hist) span() (lo, hi int) {
	switch {
	case h.n == 0:
		return 0, -1
	case math.IsNaN(h.sum):
		return 0, histBuckets - 1
	}
	return histBucket(h.min), histBucket(h.max)
}

// reset empties h, clearing only its span's buckets.
//
//mugi:noalloc
func (h *Hist) reset() {
	lo, hi := h.span()
	clear(h.counts[lo : hi+1])
	h.n, h.sum, h.min, h.max = 0, 0, 0, 0
}

// set makes h a copy of o, touching only the buckets of h's span and
// of o's.
//
//mugi:noalloc
func (h *Hist) set(o *Hist) {
	h.reset()
	lo, hi := o.span()
	copy(h.counts[lo:hi+1], o.counts[lo:hi+1])
	h.n, h.sum, h.min, h.max = o.n, o.sum, o.min, o.max
}

// histBucket maps a sample to its bucket index, clamping at the grid's
// edges: samples below histMin (zero and negatives included) land in
// bucket 0, and samples at or above histMax (+Inf included) in the top
// bucket. NaN lands in bucket 0. The clamps come before the logarithm,
// so the map is monotone on every non-NaN input.
func histBucket(x float64) int {
	switch {
	case !(x >= histMin): // below the grid, or NaN
		return 0
	case x >= histMax:
		return histBuckets - 1
	}
	i := int((math.Log(x) - histLogMin) * histInvWidth)
	if i < 0 {
		return 0
	}
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// histValue is the geometric midpoint of bucket i, the value a ranked
// percentile resolves to.
func histValue(i int) float64 {
	return math.Exp(histLogMin + (float64(i)+0.5)*histWidth)
}

// Percentiles renders the population summary. Mean and Max are exact;
// P50/P95/P99 are nearest-rank resolved on the grid and clamped into the
// exact [min, max] envelope so a one-sample population reports its own
// value to within half a bucket. One cumulative walk over the span
// resolves all three.
//
//mugi:noalloc
func (h *Hist) Percentiles() Percentiles {
	if h.n == 0 {
		return Percentiles{}
	}
	p := Percentiles{Count: h.n, Mean: h.sum / float64(h.n), Max: h.max}
	// Nearest-rank targets, in ascending order so one cumulative walk
	// fills all three.
	ranks := [3]int64{
		nearestRank(0.50, h.n),
		nearestRank(0.95, h.n),
		nearestRank(0.99, h.n),
	}
	vals := [3]float64{}
	var cum int64
	next := 0
	lo, hi := h.span()
	for i := lo; i <= hi && next < len(ranks); i++ {
		cum += int64(h.counts[i])
		for next < len(ranks) && cum >= ranks[next] {
			vals[next] = h.clamp(histValue(i))
			next++
		}
	}
	p.P50, p.P95, p.P99 = vals[0], vals[1], vals[2]
	return p
}

// nearestRank is the 1-based nearest-rank index of quantile q over n
// samples.
func nearestRank(q float64, n int64) int64 {
	r := int64(math.Ceil(q * float64(n)))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// clamp bounds a grid-resolved value by the exact extremes.
func (h *Hist) clamp(x float64) float64 {
	if x < h.min {
		return h.min
	}
	if x > h.max {
		return h.max
	}
	return x
}
