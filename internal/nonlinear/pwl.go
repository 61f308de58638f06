package nonlinear

import (
	"fmt"
	"math"
)

// PWL is a piecewise-linear approximator (paper §2.2.2): the input range is
// cut into uniform segments; each segment stores a slope and intercept
// obtained by interpolating the exact function at the segment endpoints.
// Inputs outside the covered range follow the function's asymptotes.
//
// The paper's PWL baseline uses 22 segments and sweeps the segment range
// ("sr"): softmax covers [sr, 0] (inputs are max-subtracted, hence
// non-positive) and SiLU/GELU cover [-sr, sr] (Fig. 6 caption).
type PWL struct {
	fn       Op
	lo, hi   float64
	slope    []float64
	icept    []float64
	segWidth float64
}

// NewPWL builds a PWL approximator for op over [lo, hi] with the given
// number of segments. It panics on invalid ranges.
func NewPWL(op Op, lo, hi float64, segments int) *PWL {
	if segments < 1 {
		panic(fmt.Sprintf("nonlinear: PWL segments %d < 1", segments))
	}
	if !(lo < hi) {
		panic(fmt.Sprintf("nonlinear: PWL range [%v,%v] invalid", lo, hi))
	}
	p := &PWL{
		fn:       op,
		lo:       lo,
		hi:       hi,
		slope:    make([]float64, segments),
		icept:    make([]float64, segments),
		segWidth: (hi - lo) / float64(segments),
	}
	for s := 0; s < segments; s++ {
		x0 := lo + float64(s)*p.segWidth
		x1 := x0 + p.segWidth
		y0 := Exact(op, x0)
		y1 := Exact(op, x1)
		p.slope[s] = (y1 - y0) / (x1 - x0)
		p.icept[s] = y0 - p.slope[s]*x0
	}
	return p
}

// NewPWLSoftmax builds the paper's softmax PWL configuration: `segments`
// pieces over [segmentRange, 0] for exp with max-subtracted inputs.
// segmentRange must be negative.
func NewPWLSoftmax(segmentRange float64, segments int) *PWL {
	if segmentRange >= 0 {
		panic("nonlinear: softmax PWL segment range must be negative")
	}
	return NewPWL(Exp, segmentRange, 0, segments)
}

// NewPWLActivation builds the paper's SiLU/GELU PWL configuration:
// `segments` pieces over [-segmentRange, segmentRange].
func NewPWLActivation(op Op, segmentRange float64, segments int) *PWL {
	if segmentRange <= 0 {
		panic("nonlinear: activation PWL segment range must be positive")
	}
	return NewPWL(op, -segmentRange, segmentRange, segments)
}

// Op implements Approximator.
func (p *PWL) Op() Op { return p.fn }

// Approx implements Approximator. Out-of-range inputs follow asymptotes:
// exp flushes to 0 below the range and grows exactly above 0 is not
// possible in hardware, so it clamps to the last segment's line; SiLU and
// GELU approach 0 on the far left and the identity on the far right.
func (p *PWL) Approx(x float64) float64 {
	if math.IsNaN(x) {
		return math.NaN()
	}
	if x < p.lo {
		switch p.fn {
		case Exp, SiLU, GELU:
			return 0
		case Tanh:
			return -1
		}
	}
	if x > p.hi {
		switch p.fn {
		case SiLU, GELU:
			return x
		case Tanh:
			return 1
		case Exp:
			// Softmax inputs are <= 0 after max subtraction; anything
			// above the range evaluates the last segment's line, which
			// passes through exp(hi).
			s := len(p.slope) - 1
			return p.slope[s]*x + p.icept[s]
		}
	}
	s := int((x - p.lo) / p.segWidth)
	if s >= len(p.slope) {
		s = len(p.slope) - 1
	}
	if s < 0 {
		s = 0
	}
	return p.slope[s]*x + p.icept[s]
}

// CyclesPerElement implements Approximator: a comparator cascade of depth
// ceil(log2(segments)) selects the segment, with the coefficient MAC
// pipelined behind it (paper §2.2.2 / §5.2.2). The paper's 22-segment
// configuration therefore takes 5 cycles per element.
func (p *PWL) CyclesPerElement() float64 {
	depth := math.Ceil(math.Log2(float64(len(p.slope))))
	if depth < 2 {
		depth = 2
	}
	return depth
}

// Name implements Approximator.
func (p *PWL) Name() string { return "PWL" }
