package core

import (
	"fmt"
	"math"

	"mugi/internal/nonlinear"
	"mugi/internal/numerics"
)

// DefaultManBits is the rounded mantissa width: 3 bits give the 8-cycle
// temporal window that matches the 8-column array (paper §4).
const DefaultManBits = 3

// DefaultWindowWidth is the sliding-window width, fixed to the array width
// of 8 (paper Fig. 5).
const DefaultWindowWidth = 8

// Config parameterizes a VLP approximator. The Fig. 6 sweep varies LUTEMax
// ("Min/Max Exp") and the stored exponent count ("LUT size").
type Config struct {
	// Op is the nonlinear operation to approximate.
	Op nonlinear.Op
	// ManBits is the rounded mantissa width (default 3).
	ManBits int
	// LUTEMin and LUTEMax delimit the stored exponent window, inclusive.
	LUTEMin, LUTEMax int
	// WindowWidth is the sliding-window width (default 8, the array width).
	WindowWidth int
}

func (c Config) withDefaults() Config {
	if c.ManBits == 0 {
		c.ManBits = DefaultManBits
	}
	if c.WindowWidth == 0 {
		c.WindowWidth = DefaultWindowWidth
	}
	return c
}

// LUTSizeConfig builds the Fig. 6 sweep point: a LUT storing `lutSize`
// exponents whose top (most significant stored exponent) is eMax.
func LUTSizeConfig(op nonlinear.Op, lutSize, eMax int) Config {
	return Config{Op: op, LUTEMin: eMax - lutSize + 1, LUTEMax: eMax}
}

// Approx is the VLP nonlinear approximator (paper §3): it splits inputs
// into S-M-E fields, value-reuses LUT rows across the array, and performs
// mantissa + exponent temporal subscription. It satisfies
// nonlinear.Approximator so it can be swapped against PWL/Taylor/PA in the
// accuracy and performance studies.
type Approx struct {
	cfg   Config
	lut   *LUT
	winLo int
}

// New builds a VLP approximator; the sliding window starts at the top of
// the LUT window.
func New(cfg Config) *Approx {
	cfg = cfg.withDefaults()
	if cfg.WindowWidth < 1 {
		panic("core: window width < 1")
	}
	if cfg.LUTEMax-cfg.LUTEMin+1 < cfg.WindowWidth {
		panic(fmt.Sprintf("core: LUT window [%d,%d] narrower than sliding width %d",
			cfg.LUTEMin, cfg.LUTEMax, cfg.WindowWidth))
	}
	a := &Approx{cfg: cfg, lut: NewLUT(cfg.Op, cfg.ManBits, cfg.LUTEMin, cfg.LUTEMax)}
	a.winLo = cfg.LUTEMax - cfg.WindowWidth + 1
	return a
}

// Config returns the approximator's configuration (with defaults applied).
func (a *Approx) Config() Config { return a.cfg }

// Window reports the current sliding window [lo, hi] inclusive.
func (a *Approx) Window() (lo, hi int) { return a.winLo, a.winLo + a.cfg.WindowWidth - 1 }

// SetWindow slides the window so its lowest stored exponent is lo; it
// clamps into the LUT range like the SW block.
func (a *Approx) SetWindow(lo int) {
	if lo < a.cfg.LUTEMin {
		lo = a.cfg.LUTEMin
	}
	if hi := a.cfg.LUTEMax - a.cfg.WindowWidth + 1; lo > hi {
		lo = hi
	}
	a.winLo = lo
}

// SelectWindowMax implements the hardware E-proc policy: the window top is
// pinned to the largest exponent seen in the mapping (paper §4 block 1),
// clamped into the LUT range. No production code calls it: it stays as
// the policy that this package's tests (softmaxSeedRef) hold Softmax's
// inline window selection to.
func (a *Approx) SelectWindowMax(xs []float64) {
	maxE := math.MinInt32
	for _, x := range xs {
		f := numerics.Split(float32(x), a.cfg.ManBits)
		if f.Class != numerics.ClassNormal {
			continue
		}
		if f.Exp > maxE {
			maxE = f.Exp
		}
	}
	if maxE == math.MinInt32 {
		return
	}
	a.SetWindow(maxE - a.cfg.WindowWidth + 1)
}

// SelectWindowMass slides the window to cover the largest exponent mass of
// the mapping — the offline "optimal range" choice of Fig. 5.
func (a *Approx) SelectWindowMass(xs []float64) {
	hist := map[int]int{}
	for _, x := range xs {
		f := numerics.Split(float32(x), a.cfg.ManBits)
		if f.Class != numerics.ClassNormal {
			continue
		}
		e := f.Exp
		if e < a.cfg.LUTEMin {
			e = a.cfg.LUTEMin
		}
		if e > a.cfg.LUTEMax {
			e = a.cfg.LUTEMax
		}
		hist[e]++
	}
	bestLo, bestMass := a.winLo, -1
	for lo := a.cfg.LUTEMin; lo+a.cfg.WindowWidth-1 <= a.cfg.LUTEMax; lo++ {
		m := 0
		for e := lo; e < lo+a.cfg.WindowWidth; e++ {
			m += hist[e]
		}
		if m > bestMass {
			bestLo, bestMass = lo, m
		}
	}
	a.winLo = bestLo
}

// Op implements nonlinear.Approximator.
func (a *Approx) Op() nonlinear.Op { return a.cfg.Op }

// Name implements nonlinear.Approximator.
func (a *Approx) Name() string { return "VLP" }

// CyclesPerElement implements nonlinear.Approximator: one element completes
// per array row every mantissa temporal window (2^ManBits cycles); the
// exponent subscription pipelines behind it.
func (a *Approx) CyclesPerElement() float64 {
	return float64(WindowCycles(a.cfg.ManBits))
}

// Approx implements nonlinear.Approximator, evaluating one input against
// the current sliding window. This is the fast functional path; see
// ApproxTemporal for the cycle-faithful array walk used in tests.
//
// The input is narrowed to its BF16 word and split into rounded fields.
// When ManBits ≤ 7 and the word is normal, the fields come straight from
// the word's bits and index the LUT; zero, subnormal, NaN and infinite
// words, and mantissas wider than BF16's 7 bits, take numerics.Split. Both
// paths return the same bits.
func (a *Approx) Approx(x float64) float64 {
	x = a.reduce(x)
	b := numerics.BF16FromFloat32(float32(x))
	word := float64(b.Float32())
	if mb := a.cfg.ManBits; mb <= 7 {
		if e := b.ExpBits(); e != 0 && e != 0xff {
			em := numerics.RoundFields(uint32(b)<<16, mb)
			return a.lut.lookupNormal(b.Sign(), int(em&(1<<mb-1)), int(em>>mb)-127, a.winLo, a.cfg.WindowWidth, word)
		}
	}
	return a.lut.lookupClamped(numerics.Split(float32(word), a.cfg.ManBits), a.winLo, a.cfg.WindowWidth, word)
}

// reduce range-reduces periodic operations into [-pi, pi] before the
// field split; the PP block performs this with a fixed-point multiply
// (paper §7.1 sketches RoPE support this way). Non-periodic ops pass
// through.
func (a *Approx) reduce(x float64) float64 {
	if (a.cfg.Op == nonlinear.Sin || a.cfg.Op == nonlinear.Cos) && !math.IsNaN(x) && !math.IsInf(x, 0) {
		return math.Remainder(x, 2*math.Pi)
	}
	return x
}

// Softmax computes a full softmax with VLP-approximated exp: max
// subtraction (E-proc), sliding-window selection on the subtracted values
// (the operands exp actually sees), VLP exp, accumulation in oAcc, and the
// reciprocal multiply in the vector array (paper §4.1). Every output bit,
// and the window it leaves set, equal SelectWindowMax over the shifted
// operands followed by nonlinear.Softmax(dst, xs, a.Approx).
//
// The window top is the largest rounded exponent among the normal float32
// words of the shifted operands v − max, and Softmax reads it from the
// row's minimum alone: v − max and its float32 rounding are monotone in
// v, and so is the rounded exponent of the word's magnitude, so no normal
// word's exponent exceeds that of min − max. A zero or subnormal
// min − max leaves every word zero or subnormal, which moves no window.
// A NaN past index 0 is skipped by the max and min comparisons and by the
// scan alike. When min − max is not finite in float32 (a NaN at index 0,
// an infinity, or a difference beyond float32's range), Softmax scans
// every operand instead.
//
// A negative normal BF16 word of v − max, the operand of every element
// but the max, is read inline: the BF16 and field roundings on its bits,
// one compare against the window, and one load from the LUT's flat
// negative plane. Zero, subnormal, NaN and infinite words take Approx.
//
//mugi:noalloc
func (a *Approx) Softmax(dst, xs []float64) []float64 {
	if a.cfg.Op != nonlinear.Exp {
		panic("core: Softmax requires an exp approximator")
	}
	if len(dst) != len(xs) {
		panic("core: Softmax length mismatch")
	}
	if len(xs) == 0 {
		return dst
	}
	max, min := xs[0], xs[0]
	for _, v := range xs[1:] {
		if v > max {
			max = v
		}
		if v < min {
			min = v
		}
	}
	mb := a.cfg.ManBits
	switch bits := math.Float32bits(float32(min - max)); bits >> 23 & 0xff {
	case 0xff:
		a.selectShiftedWindow(xs, max)
	case 0:
		// Every shifted word is zero or subnormal: the window stays.
	default:
		a.SetWindow(int(numerics.RoundFields(bits, mb)>>mb) - 127 - a.cfg.WindowWidth + 1)
	}
	// The rounded fields em = exponent<<mb | mantissa of a word in the
	// window lie in [lo, lo+span), and em − lo + off indexes the flat
	// plane.
	l := a.lut
	lo := (a.winLo + 127) << mb
	span := a.cfg.WindowWidth << mb
	off := lo - (l.EMin+127)<<mb
	sat := l.overflow(1, 0) // exp saturates to one value whatever the input
	sum := 0.0
	for i, v := range xs {
		x := v - max
		f := math.Float32bits(float32(x))
		// BF16 round to nearest even; a NaN or infinity lands outside
		// the negative normal words [0x8080, 0xff7f].
		b := (f + 0x7fff + f>>16&1) >> 16
		var e float64
		if b-0x8080 < 0x7f00 {
			switch d := int(numerics.RoundFields(b<<16, mb)) - lo; {
			case uint(d) < uint(span):
				e = l.neg[off+d]
			case d < 0:
				e = l.zero // underflow
			default:
				e = sat
			}
		} else {
			e = a.Approx(x)
		}
		dst[i] = e
		sum += e
	}
	// nonlinear.Softmax's normalization.
	if sum == 0 {
		u := 1 / float64(len(xs))
		for i := range dst {
			dst[i] = u
		}
		return dst
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
	return dst
}

// selectShiftedWindow is SelectWindowMax over the shifted operands
// v − max without materializing them, reading each normal operand's
// rounded biased exponent from its float32 bits instead of building its
// Fields.
func (a *Approx) selectShiftedWindow(xs []float64, max float64) {
	mb := a.cfg.ManBits
	maxE := -1
	for _, v := range xs {
		bits := math.Float32bits(float32(v - max))
		if e := bits >> 23 & 0xff; e == 0 || e == 0xff {
			continue // zero, subnormal, infinite or NaN
		}
		if e := int(numerics.RoundFields(bits, mb) >> mb); e > maxE {
			maxE = e
		}
	}
	if maxE >= 0 {
		a.SetWindow(maxE - 127 - a.cfg.WindowWidth + 1)
	}
}

// ApproxTemporal evaluates one input by literally walking the temporal
// machinery cycle by cycle — the mantissa TC subscribing the streamed LUT
// rows, then the exponent TC subscribing within the captured row — and
// returns the value plus the subscription cycle indices. No production
// code calls it: it stays as the cycle-faithful reference that this
// package's property tests hold Approx to, exactly.
func (a *Approx) ApproxTemporal(x float64) (val float64, manCycle, expCycle int) {
	x = a.reduce(x)
	word := float64(numerics.BF16FromFloat32(float32(x)).Float32())
	f := numerics.Split(float32(word), a.cfg.ManBits)
	if f.Class != numerics.ClassNormal {
		return a.lut.lookupClamped(f, a.winLo, a.cfg.WindowWidth, word), -1, -1
	}
	e := f.Exp
	underflow := e < a.winLo
	overflow := e >= a.winLo+a.cfg.WindowWidth
	// The exp LUT stores only the negative plane, so a positive input
	// subscribes no row and saturates as in lookupClamped.
	unstored := !a.lut.signed && f.Sign == 0
	if underflow || overflow || unstored {
		return a.lut.lookupClamped(f, a.winLo, a.cfg.WindowWidth, word), -1, -1
	}
	// Phase 2+3: stream LUT rows in mantissa-ascending order; the mantissa
	// TC captures its row when the counter matches.
	manWin := WindowCycles(a.cfg.ManBits)
	tcM := NewTemporalConverter(f.Mantissa)
	var row []float64
	for c := 0; c < manWin; c++ {
		streamed := a.lut.Row(f.Sign, c, a.winLo, a.cfg.WindowWidth)
		if tcM.Step(c) {
			row = streamed
			manCycle = c
		}
	}
	// Phase 4: the exponent TC subscribes within the captured row.
	tcE := NewTemporalConverter(e - a.winLo)
	for c := 0; c < a.cfg.WindowWidth; c++ {
		if tcE.Step(c) {
			val = row[c]
			expCycle = c
		}
	}
	return val, manCycle, expCycle
}

// TuneWindow picks the LUT top exponent (eMax) in [searchLo, searchHi]
// minimizing the value-weighted error over the samples, for a LUT storing
// lutSize exponents. It is the per-layer tuning primitive behind Fig. 7.
func TuneWindow(op nonlinear.Op, lutSize int, samples []float64, searchLo, searchHi int) (bestEMax int, bestErr float64) {
	if searchLo > searchHi {
		panic("core: TuneWindow empty search range")
	}
	bestErr = math.Inf(1)
	bestEMax = searchLo
	for eMax := searchLo; eMax <= searchHi; eMax++ {
		a := New(LUTSizeConfig(op, lutSize, eMax))
		a.SelectWindowMass(samples)
		if err := nonlinear.WeightedError(a, samples); err < bestErr {
			bestErr, bestEMax = err, eMax
		}
	}
	return bestEMax, bestErr
}
