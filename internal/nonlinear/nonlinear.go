// Package nonlinear provides the nonlinear operations that dominate
// transformer runtime beyond GEMM — exp/softmax, SiLU, and GELU — together
// with the hardware approximation schemes the paper compares against:
// piecewise-linear (PWL), Taylor series with Horner evaluation, and partial
// approximation (PA).
//
// The VLP approximator itself lives in internal/core and implements the
// same Approximator interface defined here.
package nonlinear

import (
	"fmt"
	"math"
)

// Op identifies an element-wise nonlinear operation. Softmax is composed
// from Exp plus a vector sum and division (see Softmax).
type Op int

const (
	// Exp is e^x, the kernel inside softmax.
	Exp Op = iota
	// SiLU is x * sigmoid(x) (a.k.a. swish), paper Eq. 2.
	SiLU
	// GELU is the Gaussian error linear unit, paper Eq. 3.
	GELU
	// Tanh is the hyperbolic tangent, used by the GELU tanh approximation.
	Tanh
	// Sin is the sine, one of the two rotary-positional-embedding kernels
	// (paper §7.1: RoPE's sine/cosine can be approximated on the VLP
	// array).
	Sin
	// Cos is the cosine, RoPE's other kernel.
	Cos
)

// String names the op using the paper's abbreviations.
func (o Op) String() string {
	switch o {
	case Exp:
		return "exp"
	case SiLU:
		return "SiLU"
	case GELU:
		return "GELU"
	case Tanh:
		return "tanh"
	case Sin:
		return "sin"
	case Cos:
		return "cos"
	default:
		return fmt.Sprintf("op(%d)", int(o))
	}
}

// Exact evaluates op precisely in float64, serving as the software
// reference implementation (paper §2.2.1).
func Exact(op Op, x float64) float64 {
	switch op {
	case Exp:
		return math.Exp(x)
	case SiLU:
		return x / (1 + math.Exp(-x))
	case GELU:
		return x / 2 * (1 + math.Erf(x/math.Sqrt2))
	case Tanh:
		return math.Tanh(x)
	case Sin:
		return math.Sin(x)
	case Cos:
		return math.Cos(x)
	default:
		panic(fmt.Sprintf("nonlinear: unknown op %d", int(op)))
	}
}

// Softmax computes a numerically stable softmax of x using the provided
// exp function (exact or approximate), writing into dst. The maximum is
// subtracted before exponentiation, as done both in software and by the
// Mugi E-proc (paper Eq. 1). dst and x may alias. It returns dst.
func Softmax(dst, x []float64, exp func(float64) float64) []float64 {
	if len(dst) != len(x) {
		panic("nonlinear: Softmax length mismatch")
	}
	if len(x) == 0 {
		return dst
	}
	max := x[0]
	for _, v := range x[1:] {
		if v > max {
			max = v
		}
	}
	sum := 0.0
	for i, v := range x {
		e := exp(v - max)
		dst[i] = e
		sum += e
	}
	if sum == 0 {
		// All inputs flushed to zero by an approximation: fall back to the
		// uniform distribution, which is what normalizing infinitesimally
		// small equal masses yields.
		u := 1 / float64(len(x))
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

// SoftmaxExact computes the stable softmax with exact exp.
func SoftmaxExact(dst, x []float64) []float64 {
	return Softmax(dst, x, math.Exp)
}

// Approximator is a hardware nonlinear implementation: it maps one input
// to one approximate output and reports its amortized per-element latency
// in array cycles, which the architecture simulator converts to time and
// energy.
type Approximator interface {
	// Op reports which nonlinear function this instance approximates.
	Op() Op
	// Approx evaluates the approximation at x.
	Approx(x float64) float64
	// CyclesPerElement is the amortized per-element latency in cycles on
	// the unit that hosts this approximator (vector lane or VLP array).
	CyclesPerElement() float64
	// Name is a short scheme identifier ("PWL", "Taylor", "VLP", ...).
	Name() string
}
