package autoscale

import (
	"fmt"
	"strings"

	"mugi/internal/faults"
	"mugi/internal/fleet"
	"mugi/internal/serve"
)

// StaticReport is the always-on baseline: the same trace served by the
// same owned fleet with every replica powered at full speed for the
// whole horizon — what the static PR 5 plan deploys.
type StaticReport struct {
	// Fleet is the merged fleet report (JSQ routing across MaxReplicas).
	Fleet fleet.Report
	// Horizon is the fleet makespan in seconds.
	Horizon float64
	// TotalEnergy is dynamic energy plus *wall-clock* leakage: an
	// always-on replica leaks for the whole horizon whether busy or not.
	TotalEnergy float64
	// ViolationMinutes is the windowed SLO accounting's headline number.
	ViolationMinutes float64
	// Day prices the deployment per day.
	Day fleet.DayCost
}

// Comparison is the static-vs-dynamic verdict on one trace: same owned
// replicas (equal capex), same requests, different watts.
type Comparison struct {
	// Static is the always-on baseline; Dynamic is the controller run.
	Static  StaticReport
	Dynamic Report
	// SavingsPerDay is static minus dynamic $/day (positive: the
	// controller wins); SavingsPct is it as a fraction of static.
	SavingsPerDay, SavingsPct float64
}

// String renders the comparison deterministically — the table the CLI,
// the registry experiment and docs/AUTOSCALING.md all print.
func (c Comparison) String() string {
	var b strings.Builder
	d := &c.Dynamic
	fmt.Fprintf(&b, "autoscale: %s on %s %s, %d replicas owned (min %d), policy %s\n",
		d.Model, d.Design, d.Mesh, d.MaxReplicas, d.MinReplicas, d.Policy)
	fmt.Fprintf(&b, "trace: %s  %d requests over %.1f h\n",
		d.Trace.Kind, d.Requests, c.Static.Horizon/3600)
	fmt.Fprintf(&b, "static:  %s  SLO violation %.1f min\n",
		c.Static.Day, c.Static.ViolationMinutes)
	fmt.Fprintf(&b, "dynamic: %s  SLO violation %.1f min\n",
		d.Day, d.ViolationMinutes)
	fmt.Fprintf(&b, "dynamic fleet: mean active %.2f replicas  %d scale-ups  %d scale-downs  %d DVFS shifts\n",
		d.MeanActiveReplicas, d.ScaleUps, d.ScaleDowns, d.DVFSShifts)
	fmt.Fprintf(&b, "replica-seconds: active %.0f  idle %.0f  booting %.0f  off %.0f\n",
		d.ActiveSeconds, d.IdleSeconds, d.BootSeconds, d.OffSeconds)
	if d.FaultsOn {
		fmt.Fprintf(&b, "faults: %d crashes  %d boot failures  %d stragglers  %.0f s failed\n",
			d.Crashes, d.BootFailures, d.Stragglers, d.FailedSeconds)
		fmt.Fprintf(&b, "availability: dynamic %.4f%% (%s, %d redispatched, %d shed)  static %.4f%% (%s)\n",
			d.Availability*100, faults.NinesString(d.Availability), d.Redispatched, d.Shed,
			c.Static.Fleet.Fleet.Availability*100, faults.NinesString(c.Static.Fleet.Fleet.Availability))
	}
	fmt.Fprintf(&b, "savings: $%.4f/day (%.1f%%)\n", c.SavingsPerDay, 100*c.SavingsPct)
	return b.String()
}

// RunStatic serves the trace on the always-on fleet: MaxReplicas
// replicas behind JSQ routing, full speed, leaking for the whole
// horizon. The returned report carries the same windowed SLO accounting
// and $/day pricing as the dynamic side.
func RunStatic(cfg Config, tc serve.TraceConfig) (StaticReport, error) {
	cfg = cfg.withDefaults()
	if err := validateConfig(cfg); err != nil {
		return StaticReport{}, err
	}
	src, err := serve.NewStream(tc)
	if err != nil {
		return StaticReport{}, err
	}
	frep, err := fleet.Run(fleet.Config{
		Replica:       cfg.Replica,
		Replicas:      cfg.MaxReplicas,
		Policy:        fleet.JSQ,
		Window:        serve.WindowSpec{Width: cfg.WindowWidth, TTFT: cfg.SLO.TTFT, Latency: cfg.SLO.Latency},
		Faults:        cfg.Faults,
		MaxRedispatch: cfg.MaxRedispatch,
	}, src)
	if err != nil {
		return StaticReport{}, err
	}
	out := StaticReport{
		Fleet:            frep,
		Horizon:          frep.Fleet.Makespan,
		ViolationMinutes: frep.Windows.ViolationMinutes(),
	}
	// Always-on energy: the fleet report's dynamic joules, plus every
	// owned replica leaking at nominal static power for the whole
	// horizon (fleet.Run bills only busy spans; the static deployment
	// never powers down).
	leak := fleet.ReplicaLeakageWatts(cfg.Replica.Design, cfg.Replica.Mesh)
	out.TotalEnergy = frep.Fleet.DynamicEnergy +
		leak*float64(cfg.MaxReplicas)*out.Horizon
	day, err := fleet.PriceDay(cfg.Book, cfg.Replica.Design, cfg.Replica.Mesh,
		cfg.MaxReplicas, out.TotalEnergy, out.Horizon)
	if err != nil {
		return StaticReport{}, err
	}
	out.Day = day
	return out, nil
}

// Compare runs the trace through the always-on baseline and the dynamic
// controller and returns both priced sides. Deterministic at any runner
// parallelism: the static side inherits fleet.Run's contract, the
// dynamic side is serial.
func Compare(cfg Config, tc serve.TraceConfig) (Comparison, error) {
	st, err := RunStatic(cfg, tc)
	if err != nil {
		return Comparison{}, err
	}
	dyn, err := Run(cfg, tc)
	if err != nil {
		return Comparison{}, err
	}
	return compare(st, dyn), nil
}

// compare prices the dynamic side's savings against the static side.
func compare(st StaticReport, dyn Report) Comparison {
	c := Comparison{Static: st, Dynamic: dyn}
	c.SavingsPerDay = st.Day.DollarsPerDay - dyn.Day.DollarsPerDay
	if st.Day.DollarsPerDay > 0 {
		c.SavingsPct = c.SavingsPerDay / st.Day.DollarsPerDay
	}
	return c
}
