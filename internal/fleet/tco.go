package fleet

import (
	"fmt"
	"math"
	"strings"

	"mugi/internal/arch"
	"mugi/internal/carbon"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// PriceBook defaults. The capex figures are deliberately coarse — the
// planner's claims are about *relative* ordering of designs, the Gray
// performance/price lens, not absolute dollars.
const (
	// DefaultDollarPerMM2 prices fabricated 45 nm silicon: a mature-node
	// 300 mm wafer in the low thousands of dollars over ~60k usable mm²,
	// marked up for packaging, test and yield.
	DefaultDollarPerMM2 = 0.05
	// DefaultDollarPerReplicaFixed is the non-die share of one replica:
	// the HBM stack, board, power delivery, and host amortization.
	DefaultDollarPerReplicaFixed = 150.0
	// DefaultElectricityPerKWh is a typical industrial tariff ($/kWh).
	DefaultElectricityPerKWh = 0.12
	// DefaultCarbonPerTonne prices CO2-equivalent emissions ($/tCO2e),
	// roughly an EU-ETS allowance.
	DefaultCarbonPerTonne = 85.0
	// DefaultPUE is the datacenter power usage effectiveness multiplier
	// applied to IT energy.
	DefaultPUE = 1.3
	// DefaultUtilization is the fraction of the deployment lifetime the
	// fleet spends serving at its operating point; capex and embodied
	// carbon amortize over only the utilized seconds.
	DefaultUtilization = 0.6
)

// PriceBook parameterizes the TCO model. The zero value selects every
// default.
type PriceBook struct {
	// DollarPerMM2 converts the 45 nm cost table's die area to capex.
	DollarPerMM2 float64
	// DollarPerReplicaFixed is per-replica capex that does not scale with
	// die area (HBM, board, host share).
	DollarPerReplicaFixed float64
	// ElectricityPerKWh prices consumed energy.
	ElectricityPerKWh float64
	// CarbonPerTonne prices operational + embodied CO2e.
	CarbonPerTonne float64
	// PUE multiplies IT energy into facility energy.
	PUE float64
	// LifetimeSeconds is the capex/embodied amortization window (default
	// carbon.DefaultLifetime, 3 years).
	LifetimeSeconds float64
	// Utilization is the serving duty cycle in (0, 1].
	Utilization float64
}

// WithDefaults materializes the zero-value defaults. Price and PriceDay
// apply it internally; callers that render book parameters use it so
// implicit and explicit defaults agree.
func (b PriceBook) WithDefaults() PriceBook {
	if b.DollarPerMM2 == 0 {
		b.DollarPerMM2 = DefaultDollarPerMM2
	}
	if b.DollarPerReplicaFixed == 0 {
		b.DollarPerReplicaFixed = DefaultDollarPerReplicaFixed
	}
	if b.ElectricityPerKWh == 0 {
		b.ElectricityPerKWh = DefaultElectricityPerKWh
	}
	if b.CarbonPerTonne == 0 {
		b.CarbonPerTonne = DefaultCarbonPerTonne
	}
	if b.PUE == 0 {
		b.PUE = DefaultPUE
	}
	if b.LifetimeSeconds == 0 {
		b.LifetimeSeconds = carbon.DefaultLifetime
	}
	if b.Utilization == 0 {
		b.Utilization = DefaultUtilization
	}
	return b
}

// Validate checks the book once its zero-value defaults are applied:
// every price, the lifetime and the utilization positive and finite,
// Utilization at most 1 and PUE at least 1. Each check is written so
// that NaN fails it.
func (b PriceBook) Validate() error {
	b = b.WithDefaults()
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DollarPerMM2", b.DollarPerMM2},
		{"DollarPerReplicaFixed", b.DollarPerReplicaFixed},
		{"ElectricityPerKWh", b.ElectricityPerKWh},
		{"CarbonPerTonne", b.CarbonPerTonne},
		{"LifetimeSeconds", b.LifetimeSeconds},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 1) {
			return fmt.Errorf("fleet: PriceBook.%s %g must be positive and finite", f.name, f.v)
		}
	}
	if !(b.PUE >= 1) || math.IsInf(b.PUE, 1) {
		return fmt.Errorf("fleet: PriceBook.PUE %g must be finite and at least 1", b.PUE)
	}
	if !(b.Utilization > 0 && b.Utilization <= 1) {
		return fmt.Errorf("fleet: PriceBook.Utilization %g must be in (0, 1]", b.Utilization)
	}
	return nil
}

// TCO is the priced operating point of one fleet: what a (design, mesh,
// replicas) deployment costs to own and run at the measured rate.
type TCO struct {
	// CapexPerReplica and FleetCapex are the purchase prices (die area ×
	// $/mm² plus the fixed per-replica share).
	CapexPerReplica, FleetCapex float64
	// AvgWatts is the fleet's average facility power at the operating
	// point (IT power × PUE).
	AvgWatts float64
	// DollarsPerHour is the fleet burn rate: amortized capex plus
	// electricity.
	DollarsPerHour float64
	// CapexPer1k, EnergyPer1k and CarbonPer1k attribute cost per thousand
	// requests at the target utilization; DollarsPer1k is their sum — the
	// planner's headline price-performance metric.
	CapexPer1k, EnergyPer1k, CarbonPer1k, DollarsPer1k float64
	// DollarsPerMTok normalizes by generated tokens instead of requests.
	DollarsPerMTok float64
	// CarbonGramsPer1k is the total footprint per thousand requests
	// (operational at PUE plus amortized embodied), in gCO2eq.
	CarbonGramsPer1k float64
}

// String renders the cost sheet deterministically.
func (t TCO) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "capex: $%.2f/replica  $%.2f fleet\n", t.CapexPerReplica, t.FleetCapex)
	fmt.Fprintf(&b, "power: %.1f W avg  burn $%.4f/h\n", t.AvgWatts, t.DollarsPerHour)
	fmt.Fprintf(&b, "per 1k requests: $%.4f  (capex %.4f + energy %.4f + carbon %.4f)  %.1f gCO2e\n",
		t.DollarsPer1k, t.CapexPer1k, t.EnergyPer1k, t.CarbonPer1k, t.CarbonGramsPer1k)
	fmt.Fprintf(&b, "per Mtoken: $%.4f\n", t.DollarsPerMTok)
	return b.String()
}

// Price computes the TCO of a fleet at the operating point rep measured.
// rep is a fleet-level serve.Report (fleet.Run's merged report, or a
// single-replica serve report with replicas = 1). The model:
//
//   - capex: replica silicon (every node's die plus NoC routers) at
//     $/mm², plus the fixed per-replica share, amortized over the
//     lifetime's *utilized* seconds — a fleet that serves 60% of the time
//     earns back its silicon over only those seconds;
//   - energy: the report's joules per request (dynamic + leakage, i.e.
//     the simulator's own accounting) times PUE times the tariff;
//   - carbon: operational CO2e from the same facility energy plus
//     embodied CO2e (internal/carbon's ACT-style area model) amortized
//     like capex, priced at $/tonne.
func Price(book PriceBook, d arch.Design, mesh noc.Mesh, replicas int, rep serve.Report) (TCO, error) {
	if err := book.Validate(); err != nil {
		return TCO{}, err
	}
	book = book.WithDefaults()
	if replicas < 1 {
		return TCO{}, fmt.Errorf("fleet: replica count %d must be positive", replicas)
	}
	if rep.SustainedRate <= 0 || rep.Completed == 0 {
		return TCO{}, fmt.Errorf("fleet: report has no sustained throughput to price")
	}
	area := ReplicaAreaMM2(d, mesh)
	t := TCO{
		CapexPerReplica: area*book.DollarPerMM2 + book.DollarPerReplicaFixed,
	}
	t.FleetCapex = t.CapexPerReplica * float64(replicas)

	dollarsPerJoule := book.ElectricityPerKWh / 3.6e6
	jPerReq := rep.JoulesPerRequest * book.PUE
	if rep.Makespan > 0 {
		t.AvgWatts = rep.TotalEnergy / rep.Makespan * book.PUE
	}
	t.DollarsPerHour = t.FleetCapex/book.LifetimeSeconds*3600 + t.AvgWatts*3600*dollarsPerJoule

	// Requests earned over the lifetime: the sustained rate for the
	// utilized fraction of every lifetime second.
	reqPerLifetime := rep.SustainedRate * book.Utilization * book.LifetimeSeconds
	t.CapexPer1k = t.FleetCapex / reqPerLifetime * 1000
	t.EnergyPer1k = jPerReq * dollarsPerJoule * 1000

	operationalG := carbon.Operational(jPerReq)
	embodiedG := carbon.EmbodiedTotal(area*float64(replicas)) / reqPerLifetime
	t.CarbonGramsPer1k = (operationalG + embodiedG) * 1000
	t.CarbonPer1k = t.CarbonGramsPer1k / 1e6 * book.CarbonPerTonne

	t.DollarsPer1k = t.CapexPer1k + t.EnergyPer1k + t.CarbonPer1k
	if rep.OutputTokens > 0 {
		tokPerReq := float64(rep.OutputTokens) / float64(rep.Completed)
		t.DollarsPerMTok = t.DollarsPer1k / 1000 / tokPerReq * 1e6
	}
	return t, nil
}

// DayCost is a fleet's owning-and-running cost normalized to one day —
// the honest single number a static plan and a dynamic autoscaler are
// compared on (Gray's price/performance lens over time-varying power
// draw). Capex is charged for every *owned* replica whether or not it
// was powered (an autoscaler cannot un-buy silicon at night); energy and
// carbon are charged for the joules actually drawn.
type DayCost struct {
	// CapexPerDay amortizes the owned fleet's purchase price over the
	// book's lifetime.
	CapexPerDay float64
	// EnergyPerDay prices the measured facility energy (IT × PUE).
	EnergyPerDay float64
	// CarbonPerDay prices operational CO2e on the measured energy plus
	// the owned silicon's amortized embodied CO2e.
	CarbonPerDay float64
	// DollarsPerDay is the sum — the headline comparison number.
	DollarsPerDay float64
	// AvgWatts is the average facility power over the horizon.
	AvgWatts float64
	// CarbonGramsPerDay is the daily CO2e footprint behind CarbonPerDay.
	CarbonGramsPerDay float64
}

// String renders the day sheet deterministically.
func (t DayCost) String() string {
	return fmt.Sprintf("$%.4f/day (capex %.4f + energy %.4f + carbon %.4f)  avg %.1f W",
		t.DollarsPerDay, t.CapexPerDay, t.EnergyPerDay, t.CarbonPerDay, t.AvgWatts)
}

// PriceDay prices a fleet of owned replicas that drew energyJ IT joules
// over horizonSeconds of wall clock. Unlike Price, which attributes cost
// per request at a target utilization, PriceDay normalizes to wall-clock
// days: it is the right lens when two deployments serve the *same*
// requests and differ only in what the silicon was doing between them —
// the static-vs-autoscaled comparison. Both sides own the same replicas
// (equal capex); the integrated joules carry the difference.
func PriceDay(book PriceBook, d arch.Design, mesh noc.Mesh, replicas int, energyJ, horizonSeconds float64) (DayCost, error) {
	if err := book.Validate(); err != nil {
		return DayCost{}, err
	}
	book = book.WithDefaults()
	if replicas < 1 {
		return DayCost{}, fmt.Errorf("fleet: replica count %d must be positive", replicas)
	}
	if !(horizonSeconds > 0) || math.IsInf(horizonSeconds, 1) {
		return DayCost{}, fmt.Errorf("fleet: horizon %g must be positive and finite", horizonSeconds)
	}
	if !(energyJ >= 0) || math.IsInf(energyJ, 1) {
		return DayCost{}, fmt.Errorf("fleet: energy %g must be finite and non-negative", energyJ)
	}
	const day = 86400.0
	area := ReplicaAreaMM2(d, mesh)
	capex := (area*book.DollarPerMM2 + book.DollarPerReplicaFixed) * float64(replicas)

	var t DayCost
	t.CapexPerDay = capex / book.LifetimeSeconds * day

	facilityJ := energyJ * book.PUE
	t.AvgWatts = facilityJ / horizonSeconds
	t.EnergyPerDay = facilityJ / horizonSeconds * day * book.ElectricityPerKWh / 3.6e6

	operationalG := carbon.Operational(facilityJ) / horizonSeconds * day
	embodiedG := carbon.EmbodiedTotal(area*float64(replicas)) / book.LifetimeSeconds * day
	t.CarbonGramsPerDay = operationalG + embodiedG
	t.CarbonPerDay = t.CarbonGramsPerDay / 1e6 * book.CarbonPerTonne

	t.DollarsPerDay = t.CapexPerDay + t.EnergyPerDay + t.CarbonPerDay
	return t, nil
}
