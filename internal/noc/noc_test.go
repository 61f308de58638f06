package noc

import (
	"strconv"
	"testing"

	"mugi/internal/arch"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(4, 4)
	if m.Nodes() != 16 || m.String() != "4x4" {
		t.Errorf("mesh: %d %q", m.Nodes(), m.String())
	}
	if Single.Nodes() != 1 {
		t.Error("single mesh")
	}
	if m.SpeedupFactor() != 16 {
		t.Errorf("speedup %v", m.SpeedupFactor())
	}
}

func TestParseMesh(t *testing.T) {
	m, err := ParseMesh("4x4")
	if err != nil || m.Nodes() != 16 || m.String() != "4x4" {
		t.Errorf("ParseMesh(4x4): %v %v", m, err)
	}
	m, err = ParseMesh("2x1")
	if err != nil || m.Nodes() != 2 {
		t.Errorf("ParseMesh(2x1): %v %v", m, err)
	}
	// The largest meshes, MaxNodes nodes, parse; one node more does not.
	for _, s := range []string{"1024x1024", "1x1048576", "1048576x1", "512x2048"} {
		if m, err := ParseMesh(s); err != nil || m.Nodes() != MaxNodes || m.String() != s {
			t.Errorf("ParseMesh(%q): %v %v", s, m, err)
		}
	}
	for _, bad := range []string{"", "4", "ax4", "0x4", "-1x2", "4x4junk", "2x2x9", "4x", "x4", "+4x4", "4x 4",
		"1025x1024", "1x1048577", "1048577x1", "3037000500x3037000500", "4294967296x4294967296"} {
		if _, err := ParseMesh(bad); err == nil {
			t.Errorf("ParseMesh(%q) should error", bad)
		}
	}
}

// TestMeshValidates: NewMesh panics and Validate errs on the meshes
// ParseMesh rejects, whose node count may overflow int (a 32-bit int
// wraps MaxNodes×MaxNodes to 0 and 65537×65536 to 65536; a 64-bit int
// overflows at 3037000500×3037000500, dimensions that are not 32-bit
// ints, so those cases run on 64-bit GOARCHes only).
func TestMeshValidates(t *testing.T) {
	meshes := []Mesh{{0, 4}, {4, -1}, {1025, 1024}, {1, MaxNodes + 1}, {MaxNodes, MaxNodes}, {65537, 65536}}
	if strconv.IntSize == 64 {
		side, big := int64(3037000500), int64(1)<<32
		meshes = append(meshes, Mesh{int(side), int(side)}, Mesh{int(big), int(big)})
	}
	for _, m := range meshes {
		if err := m.Validate(); err == nil {
			t.Errorf("%v: Validate accepted it", m)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewMesh(%d, %d) did not panic", m.Rows, m.Cols)
				}
			}()
			NewMesh(m.Rows, m.Cols)
		}()
	}
}

func TestSingleNodeHasNoNoCOverhead(t *testing.T) {
	if Single.AreaMM2() != 0 {
		t.Error("single node should have no NoC area")
	}
	if Single.TransferEnergy(1e9) != 0 {
		t.Error("single node should have no transfer energy")
	}
	if Single.LeakageWatts(&arch.Cost45nm) != 0 {
		t.Error("single node should have no NoC leakage")
	}
}

func TestNoCAreaMatchesFig13(t *testing.T) {
	// Fig. 13: a 4×4 NoC adds ~0.5 mm² on top of the node areas.
	got := NewMesh(4, 4).AreaMM2()
	if got < 0.4 || got > 0.6 {
		t.Errorf("4x4 NoC area %v, want ~0.5", got)
	}
}

func TestTransferEnergyScalesWithHops(t *testing.T) {
	small := NewMesh(2, 2).TransferEnergy(1 << 30)
	large := NewMesh(8, 8).TransferEnergy(1 << 30)
	if large <= small {
		t.Error("larger mesh should cost more energy per byte")
	}
}

func TestRequiredBandwidth(t *testing.T) {
	m := NewMesh(4, 4)
	if bw := m.RequiredBandwidth(256e9, 1.0); bw != 256e9 {
		t.Errorf("bw %v", bw)
	}
	if bw := m.RequiredBandwidth(1, 0); bw != 0 {
		t.Errorf("zero-time bw %v", bw)
	}
}

func TestProvisionedBandwidth(t *testing.T) {
	if bw := Single.ProvisionedBandwidth(400e6); bw != 0 {
		t.Errorf("single node provisioned %.3g, want 0 (no NoC)", bw)
	}
	m := NewMesh(4, 4)
	want := float64(Channels*LinkBytesPerCycle) * 400e6 * 16
	if bw := m.ProvisionedBandwidth(400e6); bw != want {
		t.Errorf("4x4 provisioned %.3g, want %.3g", bw, want)
	}
	// The smallest multi-node mesh must out-provision the 256 GB/s HBM
	// stream, the worst-case NoC demand of any simulated pass.
	if bw := NewMesh(2, 1).ProvisionedBandwidth(400e6); bw <= 256e9 {
		t.Errorf("2x1 provisioned %.3g does not cover the HBM stream", bw)
	}
}
