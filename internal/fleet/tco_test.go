package fleet

import (
	"math"
	"strings"
	"testing"

	"mugi/internal/arch"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// pricedReport is a plausible fleet operating point for arithmetic tests.
func pricedReport() serve.Report {
	return serve.Report{
		Completed: 1000, SustainedRate: 0.5, Makespan: 2000,
		OutputTokens: 64_000, TotalEnergy: 40_000, JoulesPerRequest: 40,
	}
}

// TestPriceArithmetic pins the cost sheet's internal consistency: the
// headline is the sum of its parts, capex scales linearly with replicas,
// and the token normalization matches the request normalization.
func TestPriceArithmetic(t *testing.T) {
	d, mesh := arch.Mugi(256), noc.NewMesh(2, 2)
	rep := pricedReport()
	one, err := Price(PriceBook{}, d, mesh, 1, rep)
	if err != nil {
		t.Fatal(err)
	}
	if got := one.CapexPer1k + one.EnergyPer1k + one.CarbonPer1k; !close(got, one.DollarsPer1k) {
		t.Errorf("DollarsPer1k %v != parts %v", one.DollarsPer1k, got)
	}
	four, err := Price(PriceBook{}, d, mesh, 4, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !close(four.FleetCapex, 4*one.FleetCapex) {
		t.Errorf("fleet capex %v != 4x single %v", four.FleetCapex, one.FleetCapex)
	}
	if !close(four.CapexPer1k, 4*one.CapexPer1k) {
		t.Errorf("capex/1k %v != 4x single %v", four.CapexPer1k, one.CapexPer1k)
	}
	// Same energy at the same operating point: the energy share is
	// replica-count independent (the report already totals the fleet).
	if !close(four.EnergyPer1k, one.EnergyPer1k) {
		t.Errorf("energy/1k changed with replicas: %v vs %v", four.EnergyPer1k, one.EnergyPer1k)
	}
	tokPerReq := float64(rep.OutputTokens) / float64(rep.Completed)
	if want := one.DollarsPer1k / 1000 / tokPerReq * 1e6; !close(one.DollarsPerMTok, want) {
		t.Errorf("DollarsPerMTok %v != %v", one.DollarsPerMTok, want)
	}
	if s := one.String(); !strings.Contains(s, "per 1k requests") {
		t.Errorf("cost sheet rendering missing headline: %q", s)
	}
}

// TestPriceChargesEveryNode asserts a mesh replica pays for all of its
// dies: the same design on a 2x2 mesh must carry ~4x the silicon capex
// of a single node (plus routers).
func TestPriceChargesEveryNode(t *testing.T) {
	d := arch.Mugi(256)
	rep := pricedReport()
	book := PriceBook{DollarPerReplicaFixed: 1e-12} // isolate the die share
	single, err := Price(book, d, noc.Single, 1, rep)
	if err != nil {
		t.Fatal(err)
	}
	quad, err := Price(book, d, noc.NewMesh(2, 2), 1, rep)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := quad.CapexPerReplica / single.CapexPerReplica; ratio < 4 {
		t.Errorf("2x2 replica capex only %.2fx a single node (want >= 4x: four dies + routers)", ratio)
	}
}

// TestPriceUtilizationAmortization: halving utilization doubles the
// capex and embodied-carbon attribution per request but leaves the
// energy share untouched.
func TestPriceUtilizationAmortization(t *testing.T) {
	d := arch.Mugi(256)
	rep := pricedReport()
	full, err := Price(PriceBook{Utilization: 0.8}, d, noc.Single, 1, rep)
	if err != nil {
		t.Fatal(err)
	}
	half, err := Price(PriceBook{Utilization: 0.4}, d, noc.Single, 1, rep)
	if err != nil {
		t.Fatal(err)
	}
	if !close(half.CapexPer1k, 2*full.CapexPer1k) {
		t.Errorf("capex/1k at half utilization %v != 2x %v", half.CapexPer1k, full.CapexPer1k)
	}
	if !close(half.EnergyPer1k, full.EnergyPer1k) {
		t.Errorf("energy/1k moved with utilization: %v vs %v", half.EnergyPer1k, full.EnergyPer1k)
	}
}

// TestPriceValidation covers the pricing failure modes: no replicas, a
// report with nothing to price, and every out-of-range PriceBook knob,
// which Price and PriceDay refuse with an error naming the knob, never
// a panic or a NaN cost.
func TestPriceValidation(t *testing.T) {
	d := arch.Mugi(256)
	if _, err := Price(PriceBook{}, d, noc.Single, 0, pricedReport()); err == nil {
		t.Error("zero replicas accepted")
	}
	if _, err := Price(PriceBook{Utilization: 1.5}, d, noc.Single, 1, pricedReport()); err == nil {
		t.Error("utilization > 1 accepted")
	}
	if _, err := Price(PriceBook{}, d, noc.Single, 1, serve.Report{}); err == nil {
		t.Error("zero report accepted")
	}
	mesh := noc.NewMesh(2, 2)
	for _, row := range badBooks() {
		if _, err := Price(row.book, d, mesh, 2, pricedReport()); err == nil || !strings.Contains(err.Error(), row.knob) {
			t.Errorf("Price(%+v): err %v, want an error naming %s", row.book, err, row.knob)
		}
		if _, err := PriceDay(row.book, d, mesh, 2, 1e6, 86400); err == nil || !strings.Contains(err.Error(), row.knob) {
			t.Errorf("PriceDay(%+v): err %v, want an error naming %s", row.book, err, row.knob)
		}
	}
	if err := (PriceBook{}).Validate(); err != nil {
		t.Errorf("the default book fails validation: %v", err)
	}
	for _, bad := range [][2]float64{{math.NaN(), 86400}, {-1, 86400}, {1e6, math.NaN()}, {1e6, math.Inf(1)}} {
		if _, err := PriceDay(PriceBook{}, d, mesh, 2, bad[0], bad[1]); err == nil {
			t.Errorf("PriceDay accepted energy %g over %g s", bad[0], bad[1])
		}
	}
}

func close(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// badBooks lists one out-of-range value per PriceBook knob. Each used to
// price without an error: a negative PUE panicked in internal/carbon, a
// NaN priced to NaN, an infinite tariff to +Inf and a negative $/mm² to
// negative capex.
func badBooks() []struct {
	knob string
	book PriceBook
} {
	nan, inf := math.NaN(), math.Inf(1)
	return []struct {
		knob string
		book PriceBook
	}{
		{"DollarPerMM2", PriceBook{DollarPerMM2: -0.05}},
		{"DollarPerMM2", PriceBook{DollarPerMM2: nan}},
		{"DollarPerReplicaFixed", PriceBook{DollarPerReplicaFixed: -1}},
		{"DollarPerReplicaFixed", PriceBook{DollarPerReplicaFixed: inf}},
		{"ElectricityPerKWh", PriceBook{ElectricityPerKWh: inf}},
		{"ElectricityPerKWh", PriceBook{ElectricityPerKWh: nan}},
		{"CarbonPerTonne", PriceBook{CarbonPerTonne: -85}},
		{"CarbonPerTonne", PriceBook{CarbonPerTonne: nan}},
		{"PUE", PriceBook{PUE: -1}},
		{"PUE", PriceBook{PUE: 0.5}},
		{"PUE", PriceBook{PUE: nan}},
		{"PUE", PriceBook{PUE: inf}},
		{"LifetimeSeconds", PriceBook{LifetimeSeconds: nan}},
		{"LifetimeSeconds", PriceBook{LifetimeSeconds: -1}},
		{"LifetimeSeconds", PriceBook{LifetimeSeconds: inf}},
		{"Utilization", PriceBook{Utilization: nan}},
		{"Utilization", PriceBook{Utilization: 7}},
		{"Utilization", PriceBook{Utilization: -0.5}},
	}
}
