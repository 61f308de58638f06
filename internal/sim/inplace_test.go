package sim

import (
	"reflect"
	"slices"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/noc"
)

// handScaled re-derives table at the DVFS point p field by field, as
// arch.DVFSPoint documents it: the clock × f, every on-chip switching
// energy × v², leakage density × v, and the areas and the off-chip
// EnergyDRAMByte unchanged.
func handScaled(t *testing.T, table arch.CostTable, p arch.DVFSPoint) arch.CostTable {
	t.Helper()
	f, v := p.FScale, p.VScale
	e := v * v
	out := table
	rv := reflect.ValueOf(&out).Elem()
	for i := 0; i < rv.NumField(); i++ {
		field := rv.Field(i)
		switch name := rv.Type().Field(i).Name; {
		case name == "Frequency":
			field.SetFloat(field.Float() * f)
		case name == "LeakagePerMM2":
			field.SetFloat(field.Float() * v)
		case name == "EnergyDRAMByte", strings.HasPrefix(name, "Area"):
		case strings.HasPrefix(name, "Energy"):
			field.SetFloat(field.Float() * e)
		default:
			t.Fatalf("CostTable field %s has no declared DVFS behavior", name)
		}
	}
	return out
}

// TestDefaultSpellingsPriceAlike: the pass resolves each zero-valued
// input to its default, so spelling the default out prices the same
// Result, bit for bit. The zero Bandwidth, Mesh, Cost, NoCBandwidth and
// DVFS price like HBMBandwidth, noc.Single, arch.Cost45nm, the mesh's
// provisioned bandwidth and an explicit nominal point; an off-nominal
// DVFS point prices like the hand-scaled cost table at the zero point,
// with the NoC's default bandwidth taken at the scaled clock.
func TestDefaultSpellingsPriceAlike(t *testing.T) {
	designs := []arch.Design{arch.Mugi(256), arch.Carat(128), arch.TensorCore()}
	meshes := []noc.Mesh{{}, noc.Single, noc.NewMesh(4, 4)}
	nominal := arch.DVFSPoint{Name: "full", FScale: 1, VScale: 1}
	for _, d := range designs {
		for _, mesh := range meshes {
			spelled := mesh
			if spelled.Nodes() == 0 {
				spelled = noc.Single
			}
			for _, w := range pinnedWorkloads() {
				implicit := Simulate(Params{Design: d, Mesh: mesh}, w)
				explicit := Simulate(Params{
					Design:       d,
					Mesh:         spelled,
					Cost:         arch.Cost45nm,
					Bandwidth:    HBMBandwidth,
					NoCBandwidth: spelled.ProvisionedBandwidth(arch.Cost45nm.Frequency),
					DVFS:         nominal,
				}, w)
				if implicit != explicit {
					t.Errorf("%s on mesh %v: zero defaults %+v, spelled out %+v", d.Name, mesh, implicit, explicit)
				}
				for _, p := range arch.DVFSLadder()[1:] {
					scaled := Params{Design: d, Mesh: mesh, Cost: handScaled(t, arch.Cost45nm, p)}
					want := Simulate(scaled, w)
					for _, table := range []arch.CostTable{{}, arch.Cost45nm} {
						if got := Simulate(Params{Design: d, Mesh: mesh, Cost: table, DVFS: p}, w); got != want {
							t.Errorf("%s on mesh %v at %s (Cost zero %v): %+v, hand-scaled table %+v",
								d.Name, mesh, p, table == arch.CostTable{}, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSimulateIntoReadsInPlace: SimulateInto writes neither its Params
// nor its Workload, with the defaults left zero and at an off-nominal
// DVFS point, and it overwrites every field of a reused Result, so a
// single-node pass priced into a NoC-limited mesh pass's Result (or into
// one filled with junk) equals a fresh Simulate.
func TestSimulateIntoReadsInPlace(t *testing.T) {
	w := decode70B()
	params := []Params{
		{Design: arch.Mugi(256)},
		{Design: arch.Carat(128), Mesh: noc.NewMesh(4, 4), DVFS: arch.DVFSStep("p50", 0.5)},
		{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), NoCBandwidth: 1e9, DVFS: arch.DVFSStep("p75", 0.75)},
	}
	for _, p := range params {
		pBefore, wBefore := p, w
		wBefore.Ops = slices.Clone(w.Ops)
		var r Result
		SimulateInto(&p, &w, &r)
		if p != pBefore {
			t.Errorf("SimulateInto wrote its Params: %+v, was %+v", p, pBefore)
		}
		if !reflect.DeepEqual(w, wBefore) {
			t.Errorf("SimulateInto wrote its Workload: %+v, was %+v", w, wBefore)
		}
	}

	limited := Params{Design: arch.Mugi(256), Mesh: noc.NewMesh(4, 4), NoCBandwidth: 1e9}
	single := Params{Design: arch.Carat(128)}
	want := Simulate(single, w)
	var reused Result
	SimulateInto(&limited, &w, &reused)
	if !reused.NoCLimited || reused.NoCBandwidth == 0 {
		t.Fatalf("the 4x4 pass at 1 GB/s took no NoC fail-safe: %+v", reused)
	}
	SimulateInto(&single, &w, &reused)
	if reused != want {
		t.Errorf("Result reused from a NoC-limited pass %+v, fresh %+v", reused, want)
	}

	var junk Result
	fillJunk(reflect.ValueOf(&junk).Elem())
	SimulateInto(&single, &w, &junk)
	if junk != want {
		t.Errorf("Result reused from junk %+v, fresh %+v", junk, want)
	}
}

// fillJunk sets every field of v, a Result or a part of one, to a
// nonzero value no pass computes.
func fillJunk(v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		v.SetFloat(-7.5)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.String:
		v.SetString("junk")
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fillJunk(v.Index(i))
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fillJunk(v.Field(i))
		}
	}
}
