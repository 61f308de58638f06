package nonlinear

import (
	"fmt"
	"math"
)

// Taylor approximates exp with a truncated Taylor expansion around a center
// point, evaluated with Horner's rule as concatenated MACs (paper §2.2.3).
// The paper applies the Taylor baseline to softmax only, sweeping the
// polynomial degree and the expansion center (Fig. 6).
type Taylor struct {
	fn     Op
	center float64
	coeffs []float64 // coeffs[k] multiplies (x-center)^k
}

// NewTaylor builds a degree-`degree` expansion of op around center. Only
// Exp and Tanh have closed-form derivative ladders implemented; other ops
// panic (the paper's Taylor baseline covers softmax only).
func NewTaylor(op Op, center float64, degree int) *Taylor {
	if degree < 1 {
		panic(fmt.Sprintf("nonlinear: Taylor degree %d < 1", degree))
	}
	t := &Taylor{fn: op, center: center, coeffs: make([]float64, degree+1)}
	switch op {
	case Exp:
		// d^k/dx^k exp = exp, so coeff k = exp(c)/k!.
		ec := math.Exp(center)
		fact := 1.0
		for k := 0; k <= degree; k++ {
			if k > 0 {
				fact *= float64(k)
			}
			t.coeffs[k] = ec / fact
		}
	case Tanh:
		// Derivatives of tanh via the recurrence on polynomials in tanh:
		// if f = P(u) with u=tanh(x), f' = P'(u)(1-u^2).
		// Represent P by its coefficient slice.
		p := []float64{0, 1} // P(u) = u
		u := math.Tanh(center)
		fact := 1.0
		for k := 0; k <= degree; k++ {
			if k > 0 {
				fact *= float64(k)
			}
			t.coeffs[k] = evalPoly(p, u) / fact
			p = tanhDeriv(p)
		}
	default:
		panic(fmt.Sprintf("nonlinear: Taylor not implemented for %v", op))
	}
	return t
}

func evalPoly(p []float64, x float64) float64 {
	v := 0.0
	for i := len(p) - 1; i >= 0; i-- {
		v = v*x + p[i]
	}
	return v
}

// tanhDeriv maps polynomial P(u) to the polynomial of d/dx P(tanh x),
// namely P'(u)*(1-u^2).
func tanhDeriv(p []float64) []float64 {
	// P'(u)
	d := make([]float64, 0, len(p))
	for i := 1; i < len(p); i++ {
		d = append(d, float64(i)*p[i])
	}
	// multiply by (1 - u^2)
	out := make([]float64, len(d)+2)
	for i, c := range d {
		out[i] += c
		out[i+2] -= c
	}
	return out
}

// Op implements Approximator.
func (t *Taylor) Op() Op { return t.fn }

// Degree reports the expansion degree.
func (t *Taylor) Degree() int { return len(t.coeffs) - 1 }

// Approx implements Approximator using Horner evaluation.
func (t *Taylor) Approx(x float64) float64 {
	d := x - t.center
	v := 0.0
	for k := len(t.coeffs) - 1; k >= 0; k-- {
		v = v*d + t.coeffs[k]
	}
	if t.fn == Exp && v < 0 {
		// A truncated expansion of exp can cross zero far from the center;
		// clamp to the function's codomain as the hardware does.
		return 0
	}
	return v
}

// CyclesPerElement implements Approximator: one MAC per Horner step.
func (t *Taylor) CyclesPerElement() float64 { return float64(t.Degree()) }

// Name implements Approximator.
func (t *Taylor) Name() string { return "Taylor" }
