// Package arch describes the hardware designs of the paper's evaluation
// (Table 2): the Mugi VLP array, the Carat predecessor, systolic (SA) and
// SIMD (SD) arrays with optional FIGNA FP-INT PEs, the Hopper-style tensor
// core, and the Mugi-L LUT variant. Each design rolls up to area, leakage
// and per-operation energy through a component cost table calibrated to
// the paper's published 45 nm / 400 MHz numbers (Table 3, Fig. 13, and the
// 0.056 mm² placed-and-routed 8×8 node).
package arch

import (
	"fmt"
	"strings"
)

// Kind enumerates the design families.
type Kind int

const (
	// KindMugi is the paper's architecture: VLP array shared between
	// nonlinear approximation and GEMM.
	KindMugi Kind = iota
	// KindMugiL pairs the VLP GEMM array with a dedicated programmable
	// LUT for nonlinear operations instead of temporal approximation.
	KindMugiL
	// KindCarat is the prior VLP design, modified per §5.2.2 to run
	// BF16-INT4 (BF16 accumulators, inputs on columns) but keeping its
	// pipelined FIFOs and a separate non-VLP nonlinear unit.
	KindCarat
	// KindSA is a weight/output-stationary systolic array.
	KindSA
	// KindSD is a SIMD array with adder trees.
	KindSD
	// KindTensor is the Hopper-style tensor core: a fully pipelined
	// 8×16×16 MAC block.
	KindTensor
)

// String names the kind with the paper's abbreviations.
func (k Kind) String() string {
	switch k {
	case KindMugi:
		return "Mugi"
	case KindMugiL:
		return "Mugi-L"
	case KindCarat:
		return "Carat"
	case KindSA:
		return "SA"
	case KindSD:
		return "SD"
	case KindTensor:
		return "Tensor"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// NLScheme identifies how a design executes nonlinear operations.
type NLScheme int

const (
	// NLShared runs nonlinears on the shared VLP array (Mugi).
	NLShared NLScheme = iota
	// NLLUT uses Mugi-L's dedicated programmable LUT bank.
	NLLUT
	// NLPrecise uses a vector array of MAC units computing exactly
	// (44 cycles/element).
	NLPrecise
	// NLPWL uses a vector array with PWL approximation hardware.
	NLPWL
	// NLTaylor uses a vector array with Horner Taylor hardware.
	NLTaylor
)

// String names the scheme.
func (s NLScheme) String() string {
	switch s {
	case NLShared:
		return "shared-VLP"
	case NLLUT:
		return "LUT"
	case NLPrecise:
		return "precise"
	case NLPWL:
		return "PWL"
	case NLTaylor:
		return "Taylor"
	default:
		return fmt.Sprintf("scheme(%d)", int(s))
	}
}

// Design is one hardware configuration (one node; NoC assembly is in
// internal/noc).
type Design struct {
	Name string
	Kind Kind
	// Rows and Cols give the array geometry. VLP designs fix Cols=8;
	// SA/SD are square; the tensor core is Rows=8 (M), Cols=16 (N) with
	// Depth=16 (K).
	Rows, Cols, Depth int
	// FIGNA marks SA/SD variants with the FP-INT FIGNA PE.
	FIGNA bool
	// NL selects the nonlinear implementation.
	NL NLScheme
	// NLLanes is the vector-lane count of the dedicated nonlinear unit
	// (zero for NLShared).
	NLLanes int
	// VectorLanes is the width of the general vector unit used for
	// dequantization, softmax division, and scaling.
	VectorLanes int
	// SRAMKB is the total on-chip SRAM in KB across the i/w/o buffers.
	SRAMKB int
}

// Mugi builds the paper's design at the given array height (Table 2:
// heights 32-256, width 8). The oSRAM grows with the array so wFIFO
// loading completes in 8 cycles (§5.2.1).
func Mugi(rows int) Design {
	checkRows(rows)
	return Design{
		Name: fmt.Sprintf("Mugi (%d)", rows), Kind: KindMugi,
		Rows: rows, Cols: 8,
		NL: NLShared, VectorLanes: 8,
		SRAMKB: 128 + 64*ceilDiv(rows, 128),
	}
}

// MugiL is the ablation with a dedicated LUT bank (8 inputs share one LUT
// to match Mugi's nonlinear throughput, §5.2.2). It panics below 8 rows,
// where the bank would have no LUT.
func MugiL(rows int) Design {
	checkMinRows(KindMugiL, rows, minMugiLRows)
	d := Mugi(rows)
	d.Name = fmt.Sprintf("Mugi-L (%d)", rows)
	d.Kind = KindMugiL
	d.NL = NLLUT
	d.NLLanes = rows / 8
	return d
}

// Carat is the modified prior VLP design: same array geometry and datapath
// (BF16 accumulators, inputs on columns), but pipelined input FIFOs, double
// buffered OR trees, and a separate Taylor nonlinear unit. It panics below
// 3 rows, where the Taylor unit would have no lane.
func Carat(rows int) Design {
	checkMinRows(KindCarat, rows, minCaratRows)
	return Design{
		Name: fmt.Sprintf("Carat (%d)", rows), Kind: KindCarat,
		Rows: rows, Cols: 8,
		NL: NLTaylor, NLLanes: 3 * rows / 8, VectorLanes: 8,
		SRAMKB: 128 + 64*ceilDiv(rows, 128),
	}
}

// SystolicArray builds a dim×dim systolic array; figna selects the FIGNA
// FP-INT PE. Nonlinears run on a dedicated 16-lane precise vector array.
func SystolicArray(dim int, figna bool) Design {
	checkRows(dim)
	name := fmt.Sprintf("SA (%d)", dim)
	if figna {
		name = fmt.Sprintf("SA-F (%d)", dim)
	}
	// The precise nonlinear vector array scales with the array dimension
	// (the paper's scaled-up -S configurations keep their SRAM/vector
	// provisioning proportional so loading never adds latency, §5.2.2).
	nlLanes := dim
	if nlLanes < 16 {
		nlLanes = 16
	}
	return Design{
		Name: name, Kind: KindSA, Rows: dim, Cols: dim, FIGNA: figna,
		NL: NLPrecise, NLLanes: nlLanes, VectorLanes: 8,
		SRAMKB: 192 * ceilDiv(dim, 16),
	}
}

// SIMDArray builds a dim×dim SIMD array with adder trees.
func SIMDArray(dim int, figna bool) Design {
	d := SystolicArray(dim, figna)
	d.Kind = KindSD
	d.Name = fmt.Sprintf("SD (%d)", dim)
	if figna {
		d.Name = fmt.Sprintf("SD-F (%d)", dim)
	}
	return d
}

// WithNLScheme returns a copy of d hosting the given approximation scheme
// on its nonlinear vector unit (used for the Taylor/PWL baseline designs of
// Figs. 11/15/16).
func (d Design) WithNLScheme(s NLScheme, lanes int) Design {
	d.NL = s
	d.NLLanes = lanes
	d.Name = fmt.Sprintf("%s+%s", d.Name, s)
	return d
}

// TensorCore builds the Hopper-style 8×16×16 fully pipelined MAC block
// with 1 MB of SRAM (Table 2).
func TensorCore() Design {
	// Nonlinears run on the SM's SIMT lanes (128-wide), not a narrow
	// vector array.
	return Design{
		Name: "Tensor", Kind: KindTensor,
		Rows: 8, Cols: 16, Depth: 16,
		NL: NLPrecise, NLLanes: 128, VectorLanes: 16,
		SRAMKB: 1024,
	}
}

// ByName builds a design from its CLI spelling ("mugi", "mugil", "carat",
// "sa", "saf", "sd", "sdf", "tensor"; the fused variants also accept the
// "-f"/"mugi-l" hyphenated forms). rows is the array height (ignored for
// tensor); it must be at least 8 for Mugi-L, 3 for Carat and 1 for every
// other kind. This is the one mapping every CLI and benchmark-entry
// parser shares.
func ByName(kind string, rows int) (Design, error) {
	k := CanonicalKind(kind)
	least := 1
	switch k {
	case "mugil":
		least = minMugiLRows
	case "carat":
		least = minCaratRows
	}
	if k != "tensor" && rows < least {
		return Design{}, fmt.Errorf("arch: design %q needs an array dimension of at least %d, got %d", kind, least, rows)
	}
	switch k {
	case "mugi":
		return Mugi(rows), nil
	case "mugil":
		return MugiL(rows), nil
	case "carat":
		return Carat(rows), nil
	case "sa":
		return SystolicArray(rows, false), nil
	case "saf":
		return SystolicArray(rows, true), nil
	case "sd":
		return SIMDArray(rows, false), nil
	case "sdf":
		return SIMDArray(rows, true), nil
	case "tensor":
		return TensorCore(), nil
	default:
		return Design{}, fmt.Errorf("arch: unknown design %q (want mugi|mugil|carat|sa|saf|sd|sdf|tensor)", kind)
	}
}

// CanonicalKind is the one spelling of a ByName kind: lower case, with
// the hyphenated aliases folded ("mugi-l" is "mugil", "sa-f" "saf",
// "sd-f" "sdf"). Unknown kinds are only lower-cased.
func CanonicalKind(kind string) string {
	switch k := strings.ToLower(kind); k {
	case "mugi-l":
		return "mugil"
	case "sa-f":
		return "saf"
	case "sd-f":
		return "sdf"
	default:
		return k
	}
}

// The smallest array heights whose dedicated nonlinear unit has a lane:
// Mugi-L shares one LUT among 8 rows, and Carat's Taylor unit has 3
// lanes per 8 rows.
const (
	minMugiLRows = 8
	minCaratRows = 3
)

func checkRows(rows int) {
	if rows < 1 {
		panic(fmt.Sprintf("arch: array dimension %d < 1", rows))
	}
}

// checkMinRows panics when rows leaves kind's nonlinear unit no lane.
func checkMinRows(kind Kind, rows, least int) {
	if rows < least {
		panic(fmt.Sprintf("arch: %v array height %d < %d leaves its nonlinear unit no lane", kind, rows, least))
	}
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// PEs is the processing-element count.
func (d Design) PEs() int {
	if d.Kind == KindTensor {
		return d.Rows * d.Cols * d.Depth
	}
	return d.Rows * d.Cols
}

// PeakMACsPerCycle is the array's peak effective compute rate. VLP arrays
// complete one H×8 outer-product tile per 8-cycle temporal window, i.e. H
// effective MACs per cycle; MAC arrays deliver one MAC per PE per cycle.
func (d Design) PeakMACsPerCycle() float64 {
	switch d.Kind {
	case KindMugi, KindMugiL, KindCarat:
		return float64(d.Rows)
	default:
		return float64(d.PEs())
	}
}
