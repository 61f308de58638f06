// Package noc models the 2D mesh network-on-chip that assembles multiple
// accelerator nodes (paper §4.2, §5.2.3): three channels (input, weight,
// output), output-stationary tiling with inter-node accumulation, 400 MHz,
// and link/router bandwidth provisioned so the network never bottlenecks
// the arrays.
package noc

import (
	"fmt"
	"strconv"
	"strings"

	"mugi/internal/arch"
)

// Channels is the number of independent NoC channels (input/weight/output).
const Channels = 3

// Mesh is a rows×cols grid of identical nodes. The 1×1 mesh is a single
// node.
type Mesh struct {
	Rows, Cols int
}

// Single is the degenerate single-node mesh.
var Single = Mesh{Rows: 1, Cols: 1}

// MaxNodes is the largest node count a mesh may have (a 1024×1024
// mesh). It lies far beyond any NoC the paper or the planners study, and
// it keeps Rows*Cols and every product the simulator forms from a node
// count far inside int range.
const MaxNodes = 1 << 20

// NewMesh validates and builds a mesh; it panics where Validate errs.
func NewMesh(rows, cols int) Mesh {
	m := Mesh{Rows: rows, Cols: cols}
	if err := m.Validate(); err != nil {
		panic(err.Error())
	}
	return m
}

// Validate requires both dimensions positive and at most MaxNodes nodes.
// It divides the ceiling by one dimension rather than multiply the two,
// so the check cannot overflow at any int width.
func (m Mesh) Validate() error {
	if m.Rows < 1 || m.Cols < 1 {
		return fmt.Errorf("noc: invalid mesh %dx%d", m.Rows, m.Cols)
	}
	if m.Rows > MaxNodes/m.Cols {
		return fmt.Errorf("noc: mesh %dx%d has more than %d nodes", m.Rows, m.Cols, MaxNodes)
	}
	return nil
}

// Nodes is the node count.
func (m Mesh) Nodes() int { return m.Rows * m.Cols }

// String renders "4x4".
func (m Mesh) String() string { return fmt.Sprintf("%dx%d", m.Rows, m.Cols) }

// ParseMesh is the inverse of String: it accepts two positive decimal
// integers joined by 'x' and nothing else, so a sign, a space or trailing
// text is an error, and a mesh Validate rejects is one too.
func ParseMesh(s string) (Mesh, error) {
	r, c, _ := strings.Cut(s, "x")
	rows, rok := parseDim(r)
	cols, cok := parseDim(c)
	if !rok || !cok {
		return Mesh{}, fmt.Errorf("noc: bad mesh %q (want RxC, two positive integers)", s)
	}
	m := Mesh{Rows: rows, Cols: cols}
	if err := m.Validate(); err != nil {
		return Mesh{}, err
	}
	return m, nil
}

// parseDim parses one mesh dimension: decimal digits only, at least 1.
func parseDim(s string) (int, bool) {
	if s == "" || strings.Trim(s, "0123456789") != "" {
		return 0, false
	}
	n, err := strconv.Atoi(s)
	return n, err == nil && n >= 1
}

// Router cost constants, calibrated with the rest of the 45 nm table: the
// Fig. 13 NoC-level bars put the 4×4 NoC overhead at ~0.5 mm².
const (
	// RouterAreaMM2 is the per-node router + link area.
	RouterAreaMM2 = 0.031
	// RouterEnergyPerByte is the hop energy per byte moved on a channel.
	RouterEnergyPerByte = 0.8e-12
	// LinkBytesPerCycle is the per-channel link width in bytes (1024-bit
	// links): wide enough that the provisioned aggregate bandwidth of any
	// multi-node mesh exceeds the 256 GB/s off-chip bandwidth, so the
	// paper's "network never bottlenecks" claim holds by construction at
	// the default provisioning — and is now checked, not assumed (see
	// sim.Result.NoCRequiredBandwidth).
	LinkBytesPerCycle = 128
)

// AreaMM2 is the total NoC area (routers and links), zero for a single
// node.
func (m Mesh) AreaMM2() float64 {
	if m.Nodes() == 1 {
		return 0
	}
	return float64(m.Nodes()) * RouterAreaMM2
}

// LeakageWatts is the NoC static power.
func (m Mesh) LeakageWatts(c arch.CostTable) float64 {
	return m.AreaMM2() * c.LeakagePerMM2
}

// TransferEnergy is the energy to move `bytes` across the mesh with the
// average hop count of a 2D mesh under uniform tiling ((rows+cols)/3 hops).
func (m Mesh) TransferEnergy(bytes int64) float64 {
	if m.Nodes() == 1 {
		return 0
	}
	avgHops := float64(m.Rows+m.Cols) / 3
	return float64(bytes) * RouterEnergyPerByte * avgHops
}

// SpeedupFactor is the compute speedup from tiling GEMMs evenly across
// nodes with output-stationary inter-node accumulation: linear in node
// count (the paper's Table 3 shows 16 × Mugi(256) single-node throughput
// for the 4×4 mesh).
func (m Mesh) SpeedupFactor() float64 { return float64(m.Nodes()) }

// RequiredBandwidth returns the aggregate NoC bandwidth (bytes/s) needed so
// that streaming `bytesPerPass` over `seconds` never stalls the arrays;
// the paper configures channels to always supply at least this.
func (m Mesh) RequiredBandwidth(bytesPerPass int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytesPerPass) / seconds
}

// ProvisionedBandwidth is the aggregate bandwidth (bytes/s) the configured
// mesh supplies at the given clock: all three channels at full link width
// on every node. Zero for a single node, which has no NoC.
func (m Mesh) ProvisionedBandwidth(freqHz float64) float64 {
	if m.Nodes() == 1 {
		return 0
	}
	return float64(Channels*LinkBytesPerCycle) * freqHz * float64(m.Nodes())
}
