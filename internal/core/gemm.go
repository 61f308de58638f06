package core

import (
	"fmt"
	"math"

	"mugi/internal/tensor"
)

// Mapping selects which operand is temporally coded on the array rows
// (paper §4.2 "format customization").
type Mapping int

const (
	// MappingMugi is the paper's transposed mapping: INT4 weights/KV-cache
	// codes are temporally coded on the rows (8-cycle windows from the
	// 3-bit magnitude), while BF16 activations/queries accumulate on the
	// columns. Large LLM weight dimensions fill all rows and a GQA group
	// of 8 queries fills all columns.
	MappingMugi Mapping = iota
	// MappingCaratBF16 is the ablation: Carat's original orientation with
	// the floating-point operand temporally coded. A BF16 mantissa has 7
	// bits, so every reduction step needs a 2^7 = 128-cycle window —
	// the throughput cliff that motivates the transposed mapping.
	MappingCaratBF16
	// MappingCaratFP8 is Carat's native design point (paper §2.1): FP8
	// activations (3-bit mantissa, 8-cycle windows) temporally coded with
	// the batch dimension on the rows. It excels on large-batch CNN-style
	// workloads and starves on LLM decode batches — the quantitative form
	// of the paper's "Carat is unsuited for such workloads" argument.
	// Cycle model only; the functional engine runs the BF16-INT4 paths.
	MappingCaratFP8
)

// String names the mapping.
func (m Mapping) String() string {
	switch m {
	case MappingMugi:
		return "mugi"
	case MappingCaratBF16:
		return "carat-bf16"
	case MappingCaratFP8:
		return "carat-fp8"
	default:
		return fmt.Sprintf("mapping(%d)", int(m))
	}
}

// QuantMatrix is a K×N INT-quantized weight (or KV-cache) matrix with
// per-column, per-K-group scales, the layout produced by WOQ/KVQ.
type QuantMatrix struct {
	Rows, Cols int // K × N
	Bits       int
	GroupSize  int // group extent along K
	Codes      []int8
	// Scales is indexed [g*Cols + col] where g = k/GroupSize, unless
	// SharedScales selects the per-group layout below. Group-major, so a
	// group's scales are one contiguous row that Multiply reads in place;
	// a one-group matrix holds one scale per column either way.
	Scales []float32
	// Stride is the row stride of Codes in elements; zero means Cols.
	// Views over a larger backing buffer (the KV-cache key planes) set it
	// so Multiply can read cached codes without repacking.
	Stride int
	// SharedScales marks the KVQ value-cache layout: Scales holds one
	// scale per K-group (len = groups) shared by every column, instead of
	// per-column groups.
	SharedScales bool
}

// stride returns the row stride of Codes.
func (q QuantMatrix) stride() int {
	if q.Stride != 0 {
		return q.Stride
	}
	return q.Cols
}

// QuantizeWeights quantizes w (K×N) to signed `bits` codes with symmetric
// per-column groups of groupSize along K. Codes are clamped to ±(2^(bits-1)-1)
// so the magnitude fits the temporal window exactly.
func QuantizeWeights(w *tensor.Matrix, bits, groupSize int) QuantMatrix {
	if bits < 2 || bits > 8 {
		panic(fmt.Sprintf("core: quantize bits %d out of range", bits))
	}
	if groupSize <= 0 || groupSize > w.Rows {
		groupSize = w.Rows
	}
	groups := (w.Rows + groupSize - 1) / groupSize
	q := QuantMatrix{
		Rows: w.Rows, Cols: w.Cols, Bits: bits, GroupSize: groupSize,
		Codes:  make([]int8, w.Rows*w.Cols),
		Scales: make([]float32, groups*w.Cols),
	}
	maxQ := float64(int(1)<<(bits-1) - 1)
	for n := 0; n < w.Cols; n++ {
		for g := 0; g < groups; g++ {
			lo, hi := g*groupSize, (g+1)*groupSize
			if hi > w.Rows {
				hi = w.Rows
			}
			maxAbs := 0.0
			for k := lo; k < hi; k++ {
				if a := math.Abs(float64(w.At(k, n))); a > maxAbs {
					maxAbs = a
				}
			}
			scale := maxAbs / maxQ
			if scale == 0 {
				scale = 1
			}
			q.Scales[g*w.Cols+n] = float32(scale)
			for k := lo; k < hi; k++ {
				c := math.Round(float64(w.At(k, n)) / scale)
				if c > maxQ {
					c = maxQ
				}
				if c < -maxQ {
					c = -maxQ
				}
				q.Codes[k*w.Cols+n] = int8(c)
			}
		}
	}
	return q
}

// Code returns the integer code at (k, n). No production code calls it:
// it serves the references SimulateArrayGEMM and Dequantize.
func (q QuantMatrix) Code(k, n int) int8 { return q.Codes[k*q.stride()+n] }

// Scale returns the dequantization scale for (k, n). No production code
// calls it: it serves the reference Dequantize and this package's tests.
func (q QuantMatrix) Scale(k, n int) float32 {
	if q.SharedScales {
		return q.Scales[k/q.GroupSize]
	}
	return q.Scales[k/q.GroupSize*q.Cols+n]
}

// Dequantize reconstructs the float weight matrix. No production code
// calls it: it stays as the float reference that tests hold Multiply and
// QuantizeWeights to, and the KV cache's quantized key view with.
func (q QuantMatrix) Dequantize() *tensor.Matrix {
	w := tensor.NewMatrix(q.Rows, q.Cols)
	for k := 0; k < q.Rows; k++ {
		for n := 0; n < q.Cols; n++ {
			w.Set(k, n, float32(q.Code(k, n))*q.Scale(k, n))
		}
	}
	return w
}

// GEMMConfig describes the VLP array executing the GEMM.
type GEMMConfig struct {
	// Rows is the array height H (weights map here under MappingMugi).
	Rows int
	// Cols is the array width (8 in all paper configurations).
	Cols int
	// Mapping selects the operand orientation.
	Mapping Mapping
}

func (c GEMMConfig) validate() {
	if c.Rows < 1 || c.Cols < 1 {
		panic(fmt.Sprintf("core: GEMM array %dx%d invalid", c.Rows, c.Cols))
	}
}

// GEMMStats reports the timing and utilization of one VLP GEMM.
type GEMMStats struct {
	// WindowCycles is the temporal window per reduction step (8 for INT4
	// magnitudes under MappingMugi, 128 for BF16 under MappingCaratBF16).
	WindowCycles int
	// TilesM and TilesN count output tiles along tokens and weights.
	TilesM, TilesN int
	// Cycles is the total array latency.
	Cycles int
	// MACs is the useful multiply-accumulate count (M·N·K).
	MACs int
	// VecOps counts vector-array dequant/rescale operations (one per
	// output element).
	VecOps int
	// Utilization is MACs over the array's tile capacity.
	Utilization float64
}

// EffectiveMACsPerCycle is the achieved compute rate.
func (s GEMMStats) EffectiveMACsPerCycle() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.MACs) / float64(s.Cycles)
}

// GEMMScratch holds the reusable buffers of MultiplyInto: the float64
// group and row accumulators. Buffers grow on demand and are retained, so
// a warmed scratch makes MultiplyInto allocation-free. A scratch must not
// be shared between concurrent calls.
type GEMMScratch struct {
	acc, gacc []float64
}

// Reserve pre-sizes the scratch for outputs up to n columns, so subsequent
// MultiplyInto calls within that bound never allocate. The functional
// decoder reserves for its widest output, a full-context score row
// included, making every warmed Step allocation-free.
func (s *GEMMScratch) Reserve(n int) {
	if cap(s.acc) < n {
		s.acc = make([]float64, n)
		s.gacc = make([]float64, n)
	}
}

// ensure grows the scratch to cover an n-column output.
func (s *GEMMScratch) ensure(n int) {
	s.Reserve(n)
	s.acc = s.acc[:n]
	s.gacc = s.gacc[:n]
}

// Multiply computes C = A × Wq on the VLP array: A is an M×K BF16
// activation (query) matrix, Wq a K×N quantized weight/KV matrix. The
// arithmetic is the temporal-subscription arithmetic (magnitude × addend
// accumulation with XOR sign), so the result matches A × Dequantize(Wq)
// exactly up to float rounding; stats carry the cycle model.
//
// Under MappingMugi, weights tile the rows (N across H) and tokens tile the
// columns (M across Cols); each reduction step k costs one 8-cycle window.
// Under MappingCaratBF16, tokens tile the rows, weights tile the columns,
// and each reduction step costs a 128-cycle window.
func Multiply(cfg GEMMConfig, a *tensor.Matrix, wq QuantMatrix) (*tensor.Matrix, GEMMStats) {
	out := tensor.NewMatrix(a.Rows, wq.Cols)
	stats := MultiplyInto(cfg, a, wq, out, nil)
	return out, stats
}

// MultiplyInto is the scratch-reusing form of Multiply: it writes A × Wq
// into out (which must be A.Rows × Wq.Cols and is fully overwritten) and
// returns the cycle statistics. A nil scratch allocates a private one; a
// warmed scratch makes the call allocation-free. Results are bit-identical
// to Multiply: the kernel is blocked by quantization group with the same
// per-element accumulation order, only the loop nest is rearranged so code
// rows stream contiguously and each group's dequant scales are read as one
// row of the group-major Scales.
//
// Two shortcuts keep every bit. A pass streams four code rows and each
// element adds its four products in row order, as four one-row passes
// would. One-row groups sharing one scale s per row (GroupSize 1 with
// SharedScales, the KVQ value cache) skip their group sums and add each
// rescaled product p = (c·a)·s straight into the row's accumulator: the
// group sum 0 + p equals p for every p but −0, and a −0 product adds a
// zero to an accumulator that starts at +0 and never becomes −0, so the
// sum is unchanged. p is computed as c·(a·s), the same float64: a and s
// are float32, so a·s and c·a are exact and both sides are one rounding
// of c·a·s.
//
// On amd64 CPUs with AVX (CPUID and XGETBV, checked once at package
// init) the four-row passes run an assembly kernel that handles four
// columns per step and does in each lane what the Go loop does for one
// column; elsewhere they run the Go loop. No path fuses a multiply-add:
// every product and sum rounds once on its own, and the Go loops convert
// each product with float64(...), which the Go spec makes round, so Go's
// fused multiply-add on arm64, ppc64le, s390x and riscv64 cannot merge
// them. Every architecture and both kernels give the same bits.
//
//mugi:noalloc
func MultiplyInto(cfg GEMMConfig, a *tensor.Matrix, wq QuantMatrix, out *tensor.Matrix, scratch *GEMMScratch) GEMMStats {
	cfg.validate() //mugi:coldalloc inlined validation panic args; a valid config never takes the branch
	if cfg.Mapping == MappingCaratFP8 {
		panic("core: MappingCaratFP8 is a cycle model only (use PlanCycles)")
	}
	if a.Cols != wq.Rows {
		panic(fmt.Sprintf("core: GEMM shapes %dx%d · %dx%d", a.Rows, a.Cols, wq.Rows, wq.Cols))
	}
	m, k, n := a.Rows, a.Cols, wq.Cols
	if out.Rows != m || out.Cols != n {
		panic(fmt.Sprintf("core: GEMM out %dx%d, want %dx%d", out.Rows, out.Cols, m, n))
	}
	if scratch == nil {
		scratch = &GEMMScratch{}
	}
	gs := wq.GroupSize
	groups := (k + gs - 1) / gs
	if !wq.SharedScales && len(wq.Scales) < groups*n {
		// Checked once here: the group loop slices Scales rows, which a
		// short Scales with spare capacity would not catch.
		panic(fmt.Sprintf("core: %d scales for %d groups × %d columns", len(wq.Scales), groups, n))
	}
	scratch.ensure(n) //mugi:coldalloc scratch growth on first use; a warmed scratch never re-makes
	acc, gacc := scratch.acc, scratch.gacc
	stride := wq.stride()
	// Functional compute via subscription arithmetic: product =
	// sign ⊕ (magnitude-cycle subscription of the BF16 accumulation).
	// Group partial sums are rescaled by the vector array after the
	// subscription phase (WOQ/KVQ dequantization). The loop nest is
	// (row, group, k, column) so every code row streams contiguously; each
	// output element performs the float operations of Multiply's original
	// (j, k) walk in the same order, keeping results bit-identical.
	for i := 0; i < m; i++ {
		arow := a.Row(i)
		clear(acc)
		if gs == 1 && wq.SharedScales {
			// One-row groups sharing a scale per row: c·(a·s) straight
			// into acc (see the doc comment for why the bits hold).
			kk := 0
			for ; kk+4 <= k; kk += 4 {
				addRows4(acc, wq.Codes, kk*stride, stride,
					float64(arow[kk])*float64(wq.Scales[kk]),
					float64(arow[kk+1])*float64(wq.Scales[kk+1]),
					float64(arow[kk+2])*float64(wq.Scales[kk+2]),
					float64(arow[kk+3])*float64(wq.Scales[kk+3]))
			}
			for ; kk < k; kk++ {
				addRow(acc, wq.Codes[kk*stride:], float64(arow[kk])*float64(wq.Scales[kk]))
			}
		} else {
			for g := 0; g < groups; g++ {
				clear(gacc)
				lo, hi := g*gs, min((g+1)*gs, k)
				kk := lo
				for ; kk+4 <= hi; kk += 4 {
					addRows4(gacc, wq.Codes, kk*stride, stride,
						float64(arow[kk]), float64(arow[kk+1]), float64(arow[kk+2]), float64(arow[kk+3]))
				}
				for ; kk < hi; kk++ {
					addRow(gacc, wq.Codes[kk*stride:], float64(arow[kk]))
				}
				if wq.SharedScales {
					sg := float64(wq.Scales[g])
					for j := range gacc {
						acc[j] += float64(gacc[j] * sg)
					}
				} else {
					srow := wq.Scales[g*n : (g+1)*n]
					for j := range gacc {
						acc[j] += float64(gacc[j] * float64(srow[j]))
					}
				}
			}
		}
		orow := out.Row(i)
		for j := range acc {
			orow[j] = float32(acc[j])
		}
	}
	return PlanCycles(cfg, m, k, n, wq.Bits)
}

// addRows4 adds the products of four consecutive code rows, the first at
// codes[off] and each stride after the last, with the weights w0..w3 into
// s. Each element adds its four products in row order, exactly as four
// addRow passes would. With useAVX it runs the assembly kernel, after
// checking here the last code that kernel reads, so it never reads past a
// row's len(s) codes; otherwise it runs addRows4Go.
func addRows4(s []float64, codes []int8, off, stride int, w0, w1, w2, w3 float64) {
	if n := len(s); useAVX && n > 0 {
		_ = codes[off+3*stride+n-1]
		addRows4AVX(&s[0], n, &codes[off], stride, w0, w1, w2, w3)
		return
	}
	addRows4Go(s, codes, off, stride, w0, w1, w2, w3)
}

// addRows4Go is addRows4's Go loop: the kernel off amd64 and on CPUs
// without AVX, and the reference the tests hold the assembly to.
func addRows4Go(s []float64, codes []int8, off, stride int, w0, w1, w2, w3 float64) {
	n := len(s)
	c0 := codes[off:][:n]
	c1 := codes[off+stride:][:n]
	c2 := codes[off+2*stride:][:n]
	c3 := codes[off+3*stride:][:n]
	for j := range s {
		v := s[j]
		v += float64(codeF64[uint8(c0[j])] * w0)
		v += float64(codeF64[uint8(c1[j])] * w1)
		v += float64(codeF64[uint8(c2[j])] * w2)
		v += float64(codeF64[uint8(c3[j])] * w3)
		s[j] = v
	}
}

// addRow adds the products of the code row at the start of codes with w
// into s.
func addRow(s []float64, codes []int8, w float64) {
	for j, c := range codes[:len(s)] {
		s[j] += float64(codeF64[uint8(c)] * w)
	}
}

// codeF64 maps an int8 code, indexed as its byte, to float64: the code
// times a BF16 activation is the sign-applied magnitude product
// bit-for-bit, since IEEE negation commutes with multiplication.
var codeF64 = func() (t [256]float64) {
	for c := range t {
		t[c] = float64(int8(c))
	}
	return t
}()

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PlanCycles returns only the cycle model of Multiply for the given
// problem shape, for use by the architecture simulator on shapes too large
// to materialize.
func PlanCycles(cfg GEMMConfig, m, k, n, weightBits int) GEMMStats {
	cfg.validate()
	var stats GEMMStats
	stats.MACs = m * n * k
	stats.VecOps = m * n
	switch cfg.Mapping {
	case MappingMugi:
		stats.WindowCycles = WindowCycles(weightBits - 1)
		stats.TilesN = ceilDiv(n, cfg.Rows)
		stats.TilesM = ceilDiv(m, cfg.Cols)
	case MappingCaratBF16:
		stats.WindowCycles = WindowCycles(7)
		stats.TilesM = ceilDiv(m, cfg.Rows)
		stats.TilesN = ceilDiv(n, cfg.Cols)
	case MappingCaratFP8:
		stats.WindowCycles = WindowCycles(3) // FP8 E4M3 mantissa
		stats.TilesM = ceilDiv(m, cfg.Rows)
		stats.TilesN = ceilDiv(n, cfg.Cols)
	default:
		panic("core: unknown mapping")
	}
	stats.Cycles = stats.TilesM * stats.TilesN * k * stats.WindowCycles
	capacity := stats.TilesM * stats.TilesN * cfg.Rows * cfg.Cols * k
	stats.Utilization = float64(stats.MACs) / float64(capacity)
	return stats
}
