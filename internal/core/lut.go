package core

import (
	"fmt"
	"math"

	"mugi/internal/nonlinear"
	"mugi/internal/numerics"
)

// LUT is the iSRAM lookup table of the VLP approximation (paper Fig. 3):
// rows are indexed by (sign, rounded mantissa) and each row holds the
// nonlinear results for every exponent in the LUT window, so that a row can
// be value-reused by all inputs sharing the S-M pair while each input
// subscribes its own exponent entry. NewLUT also lays the negative sign
// plane out flat, exponent-major, once, so that Approx.Softmax reads an
// entry with one load indexed by a normal input's rounded fields.
type LUT struct {
	op      nonlinear.Op
	manBits int
	// EMin/EMax delimit the stored exponent window [EMin, EMax], inclusive.
	EMin, EMax int
	// signed indicates both signs are stored (SiLU/GELU); softmax inputs
	// are non-positive so only the negative sign plane exists and positive
	// lookups fall back to it with sign 0 rows equal to exp of +|x| being
	// impossible post max-subtraction.
	signed bool
	// zero is op(0), the output of a zero or underflowing input.
	zero float64
	// table[signPlane][mantissa][expIdx]
	table [][][]float64
	// neg is the negative sign plane flattened exponent-major:
	// neg[expIdx<<manBits | mantissa]. A negative normal input's rounded
	// fields, biased exponent<<manBits | mantissa, index it after
	// subtracting those of (EMin, 0), which is how Softmax reads it.
	neg []float64
}

// NewLUT precomputes the table. For exp (softmax kernel) only the negative
// plane is stored since inputs are max-subtracted; for SiLU/GELU both
// planes are stored, doubling the LUT as the paper notes (§4.1).
func NewLUT(op nonlinear.Op, manBits, eMin, eMax int) *LUT {
	if manBits < 1 || manBits > 8 {
		panic(fmt.Sprintf("core: LUT manBits %d out of range [1,8]", manBits))
	}
	if eMin > eMax {
		panic(fmt.Sprintf("core: LUT window [%d,%d] empty", eMin, eMax))
	}
	l := &LUT{op: op, manBits: manBits, EMin: eMin, EMax: eMax, signed: op != nonlinear.Exp, zero: nonlinear.Exact(op, 0)}
	planes := 1
	if l.signed {
		planes = 2
	}
	nMan := 1 << manBits
	nExp := eMax - eMin + 1
	l.table = make([][][]float64, planes)
	for p := 0; p < planes; p++ {
		sign := float64(1)
		if (l.signed && p == 1) || !l.signed {
			sign = -1
		}
		l.table[p] = make([][]float64, nMan)
		for m := 0; m < nMan; m++ {
			row := make([]float64, nExp)
			for e := 0; e < nExp; e++ {
				x := sign * (1 + float64(m)/float64(nMan)) * math.Ldexp(1, eMin+e)
				row[e] = nonlinear.Exact(op, x)
			}
			l.table[p][m] = row
		}
	}
	negPlane := l.table[planes-1] // plane 1 when signed, else the only one
	l.neg = make([]float64, nMan*nExp)
	for e := 0; e < nExp; e++ {
		for m := 0; m < nMan; m++ {
			l.neg[e<<manBits|m] = negPlane[m][e]
		}
	}
	return l
}

// Op reports the approximated function.
func (l *LUT) Op() nonlinear.Op { return l.op }

// Row returns the LUT row for a sign/mantissa pair restricted to the
// sliding window [winLo, winLo+width): this is the vector broadcast across
// the array during the value-reuse phase. No production code calls it: it
// serves the reference ApproxTemporal, which streams these rows.
func (l *LUT) Row(sign, mantissa, winLo, width int) []float64 {
	if winLo < l.EMin || winLo+width-1 > l.EMax {
		panic(fmt.Sprintf("core: sliding window [%d,%d] outside LUT [%d,%d]",
			winLo, winLo+width-1, l.EMin, l.EMax))
	}
	plane := 0
	if l.signed && sign == 1 {
		plane = 1
	}
	off := winLo - l.EMin
	return l.table[plane][mantissa][off : off+width]
}

// lookupClamped applies the paper's clamping rules (§4): exponents below
// the window underflow — the input is treated as zero, giving op(0); for
// exponents above the window, softmax saturates at the most negative LUT
// input (largest stored magnitude) while SiLU/GELU pass the input through
// following their identity/zero asymptotes. orig is the unrounded input
// word (the value the PP block muxes on pass-through).
func (l *LUT) lookupClamped(f numerics.Fields, winLo, width int, orig float64) float64 {
	switch f.Class {
	case numerics.ClassZero:
		return l.zero
	case numerics.ClassNaN:
		return math.NaN()
	case numerics.ClassInf:
		// PP muxes the asymptote.
		return l.overflow(f.Sign, orig)
	}
	return l.lookupNormal(f.Sign, f.Mantissa, f.Exp, winLo, width, orig)
}

// lookupNormal is lookupClamped for the rounded fields of a normal input.
func (l *LUT) lookupNormal(sign, mantissa, exp, winLo, width int, orig float64) float64 {
	if exp < winLo {
		// Underflow: treated as zero input.
		return l.zero
	}
	if exp >= winLo+width {
		return l.overflow(sign, orig)
	}
	plane := 0
	if l.signed && sign == 1 {
		plane = 1
	}
	if !l.signed && sign == 0 {
		// exp LUT stores the negative plane only; a positive input can
		// only be the max element itself (value 0), already handled, or a
		// numerical artifact — saturate at exp(0) = 1.
		return 1
	}
	return l.table[plane][mantissa][exp-l.EMin]
}

// overflow applies the operation's saturation behaviour for magnitudes
// beyond the stored window.
func (l *LUT) overflow(sign int, value float64) float64 {
	switch l.op {
	case nonlinear.Exp:
		// Max-subtracted input far below zero: exp saturates at the
		// largest stored magnitude's output, the smallest LUT value.
		nMan := 1 << l.manBits
		return l.table[0][nMan-1][l.EMax-l.EMin]
	case nonlinear.SiLU, nonlinear.GELU:
		if sign == 1 {
			return 0 // left asymptote
		}
		return value // identity asymptote: value "passes through"
	case nonlinear.Tanh:
		if sign == 1 {
			return -1
		}
		return 1
	case nonlinear.Sin, nonlinear.Cos:
		// Sin/Cos inputs are range-reduced before the split (see
		// Approx.Approx), so overflow means a misplaced window; saturate
		// at the largest stored magnitude like the other periodic-free
		// clamps.
		plane := 0
		if l.signed && sign == 1 {
			plane = 1
		}
		nMan := 1 << l.manBits
		return l.table[plane][nMan-1][l.EMax-l.EMin]
	}
	panic("core: unknown op overflow")
}
