// Package tensor provides the small dense linear-algebra substrate the
// reproduction needs: row-major float32 matrices, a reference GEMM, and
// deterministic random initialisation. It exists so the VLP engines and the
// accuracy proxy have an exact reference to be validated against.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
)

// Matrix is a dense row-major float32 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float32
}

// NewMatrix allocates a zeroed rows×cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dims %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// FromRows builds a matrix from a slice of equal-length rows. No production
// code calls it: it stays so tests can write small matrices literally.
func FromRows(rows [][]float32) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: ragged rows")
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i.
func (m *Matrix) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// T returns the transpose as a new matrix. No production code calls it:
// it stays so internal/infer's tests can lay a reference key matrix out
// like the KV cache's quantized key view.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MatMul computes a×b with float64 accumulation, the exact reference for
// the VLP GEMM engines. Panics on shape mismatch. No production code calls
// it: it stays as the reference that internal/core's tests hold Multiply
// to; production paths write into their own buffers with MatMulInto.
func MatMul(a, b *Matrix) *Matrix {
	return MatMulInto(NewMatrix(a.Rows, b.Cols), a, b)
}

// MatMulInto computes a×b into dst (which must be a.Rows × b.Cols) and
// returns dst. The accumulation order is identical to MatMul, so results
// are bit-equal; dst is fully overwritten. It is the allocation-free path
// the accuracy proxy reuses across forward passes.
func MatMulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shapes %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	if dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulInto dst %dx%d, want %dx%d", dst.Rows, dst.Cols, a.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		for j := 0; j < b.Cols; j++ {
			acc := 0.0
			for k := 0; k < a.Cols; k++ {
				acc += float64(arow[k]) * float64(b.At(k, j))
			}
			dst.Set(i, j, float32(acc))
		}
	}
	return dst
}

// RMSNormRow rescales x in place to unit RMS with the stack's shared
// epsilon. It is the single RMSNorm implementation behind both the
// functional decoder and the accuracy proxy (the paper's §7.1 notes
// normalization runs on the vector unit and is not approximated).
func RMSNormRow(x []float32) {
	ss := 0.0
	for _, v := range x {
		ss += float64(v) * float64(v)
	}
	rms := math.Sqrt(ss/float64(len(x)) + 1e-8)
	for i := range x {
		x[i] = float32(float64(x[i]) / rms)
	}
}

// RandNormal fills a new rows×cols matrix with N(0, std²) samples from a
// deterministic source.
func RandNormal(rng *rand.Rand, rows, cols int, std float64) *Matrix {
	m := NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64() * std)
	}
	return m
}

// MaxAbsDiff returns the largest absolute element-wise difference. No
// production code calls it: it stays as the comparison that internal/core's
// and internal/infer's tests hold the VLP GEMM paths and the dequantized KV
// cache to their references with.
func MaxAbsDiff(a, b *Matrix) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic("tensor: MaxAbsDiff shape mismatch")
	}
	max := 0.0
	for i := range a.Data {
		if d := math.Abs(float64(a.Data[i] - b.Data[i])); d > max {
			max = d
		}
	}
	return max
}

// Frobenius returns the Frobenius norm of m. No production code calls it:
// it stays as the scale of the error tolerances internal/core's tests hold
// the VLP GEMM paths to.
func (m *Matrix) Frobenius() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += float64(v) * float64(v)
	}
	return math.Sqrt(s)
}
