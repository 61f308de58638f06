package arch

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestAtDVFSCoversEveryEnergyField walks CostTable by reflection so a
// future per-op energy constant cannot be added without deciding its
// DVFS behavior: every Energy* field must scale by v² except the
// off-chip EnergyDRAMByte, Frequency must scale by f, LeakagePerMM2 by
// v, and every Area* field must be untouched. Re-deriving a table in
// place, with out the receiver, must give the same table.
func TestAtDVFSCoversEveryEnergyField(t *testing.T) {
	p := DVFSPoint{Name: "test", FScale: 0.5, VScale: 0.8}
	f, v := 0.5, 0.8
	base := Cost45nm
	var scaled CostTable
	base.AtDVFS(p, &scaled)
	if base != Cost45nm {
		t.Fatal("AtDVFS wrote its receiver")
	}
	inPlace := base
	inPlace.AtDVFS(p, &inPlace)
	if inPlace != scaled {
		t.Fatalf("AtDVFS in place %+v, into another table %+v", inPlace, scaled)
	}

	bv := reflect.ValueOf(base)
	sv := reflect.ValueOf(scaled)
	typ := bv.Type()
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		b := bv.Field(i).Float()
		s := sv.Field(i).Float()
		want := b
		switch {
		case name == "Frequency":
			want = b * f
		case name == "LeakagePerMM2":
			want = b * v
		case name == "EnergyDRAMByte":
			// Off-chip: not on the DVFS rail.
		case strings.HasPrefix(name, "Energy"):
			want = b * v * v
		case strings.HasPrefix(name, "Area"):
			// Silicon does not shrink with voltage.
		default:
			t.Errorf("CostTable field %s has no declared DVFS behavior — extend AtDVFS and this test", name)
			continue
		}
		if math.Abs(s-want) > 1e-18*math.Max(1, math.Abs(want)) {
			t.Errorf("AtDVFS %s = %g, want %g", name, s, want)
		}
	}
}

func TestDVFSPointNominal(t *testing.T) {
	var zero DVFSPoint
	if !zero.IsNominal() {
		t.Fatal("zero DVFSPoint must be nominal")
	}
	var got CostTable
	if Cost45nm.AtDVFS(zero, &got); got != Cost45nm {
		t.Fatal("nominal AtDVFS must copy the table unchanged")
	}
	if zero.String() != "full" {
		t.Fatalf("zero point renders %q, want full", zero.String())
	}
	if p := (DVFSPoint{FScale: 1, VScale: 1, Name: "full"}); !p.IsNominal() {
		t.Fatal("explicit unit scales must be nominal")
	}
}

// TestDVFSLadderOrdering pins the ladder contract the autoscale policies
// rely on: fastest first, strictly decreasing frequency, voltage within
// (0, 1], and a strict energy-per-op win at every downshift.
func TestDVFSLadderOrdering(t *testing.T) {
	ladder := DVFSLadder()
	if len(ladder) < 2 {
		t.Fatalf("ladder has %d points, want at least 2", len(ladder))
	}
	if !ladder[0].IsNominal() {
		t.Fatal("ladder[0] must be the nominal full-speed point")
	}
	prev := math.Inf(1)
	for i, p := range ladder {
		var c CostTable
		Cost45nm.AtDVFS(p, &c)
		if c.Frequency >= prev {
			t.Fatalf("ladder[%d] %s frequency %g not strictly below predecessor", i, p, c.Frequency)
		}
		prev = c.Frequency
		if c.EnergyVLPMAC > Cost45nm.EnergyVLPMAC || c.LeakagePerMM2 > Cost45nm.LeakagePerMM2 {
			t.Fatalf("ladder[%d] %s does not save energy", i, p)
		}
	}
}
