// Package autoscale is the online fleet controller: it drives the
// diurnal/bursty arrival traces of internal/serve against a fleet whose
// replicas have power states — off, booting, idle, active — and
// voltage–frequency operating points (internal/arch's DVFSPoint), under
// a pluggable scaling policy. Where internal/fleet answers the *static*
// question ("what fleet should I buy?"), autoscale answers the *online*
// one ("what should the fleet I bought be doing at 4am?"): replicas
// power off when demand ebbs, boot with a realistic scale-up lag when it
// returns, drain their in-flight batch before shutting down, and shift
// down the DVFS ladder when headroom allows, trading step latency (∝1/f)
// for joules per op (∝V²).
//
// The controller is a serial discrete-event loop — arrivals, round
// completions, boot completions and fixed-width policy ticks — over the
// same pure step costs the serving scheduler prices, so a run is
// byte-identical at any runner parallelism, including under the race
// detector. It runs on internal/serve's engine: one serve.Engine holds
// the request arena and the shared admission queue, each owned replica
// is one of its batches, and a replica's "round" is serve.Engine.Round
// at the replica's operating point — admit queued requests while batch
// slots and KV budget allow (one prefill pass each), then padded decode
// steps at the longest bucketed context, leaping up to the controller's
// next event. A leap never crosses an instant where one-step rounds
// would act differently, so it moves no count, latency or dynamic joule;
// only the busy-second sums regroup in their last bits. The controller
// itself keeps only the power-state machine, the DVFS ladder, leakage
// accrual, crash disposal and the policy loop.
//
// Compare runs the same trace through the static PR 5 plan (every owned
// replica always on, at full speed) and through the controller, and
// prices both sides in $/day and SLO-violation minutes (fleet.PriceDay,
// serve.Windows) — the honest two-number comparison docs/AUTOSCALING.md
// walks through.
package autoscale

import (
	"fmt"
	"sync"

	"mugi/internal/arch"
	"mugi/internal/faults"
	"mugi/internal/fleet"
	"mugi/internal/noc"
	"mugi/internal/serve"
)

// Controller defaults.
const (
	// DefaultTick is the policy decision interval in simulated seconds.
	DefaultTick = 60.0
	// DefaultScaleUpLag is the off→ready boot latency in seconds —
	// image pull, weight load, cache warm — the cost a reactive policy
	// pays that the oracle does not.
	DefaultScaleUpLag = 120.0
	// DefaultMaxReplicas bounds the fleet when the caller does not.
	DefaultMaxReplicas = 4
	// MaxControllerReplicas is the hard ceiling on a controller fleet, a
	// mistyped-flag guard like fleet.MaxReplicas.
	MaxControllerReplicas = 256
)

// SLO is the per-request service-level objective the windowed accounting
// judges: a completed request violates if its TTFT or its total latency
// exceeds the bound (zero disables a bound). A window containing a
// violating request is a violated window; violated windows × width are
// the report's SLO-violation minutes.
type SLO struct {
	// TTFT bounds arrival→first-token, in seconds.
	TTFT float64
	// Latency bounds arrival→last-token, in seconds.
	Latency float64
}

// DefaultSLO matches the planner CLI's defaults: 60 s to first token,
// 300 s to completion.
func DefaultSLO() SLO { return SLO{TTFT: 60, Latency: 300} }

// PowerState is one replica's position in the power-state machine (the
// diagram in docs/AUTOSCALING.md): Off ↔ Booting → Idle ↔ Active →
// Draining → Off. Switches over it must be exhaustive — tools/mugivet's
// exhauststate analyzer fails the lint gate on any switch that could
// silently ignore a state added later.
//
//mugi:exhaustive
type PowerState int

const (
	// Off: powered down, zero watts, must boot (ScaleUpLag) to serve.
	Off PowerState = iota
	// Booting: powering up; leaks at nominal idle power, serves nothing.
	Booting
	// Idle: ready, leaking at its DVFS point's static power, no work.
	Idle
	// Active: running rounds (admissions + decode steps).
	Active
	// Draining: finishing its in-flight batch, admitting nothing; powers
	// off when the batch drains, or returns to Active if scaled back up.
	Draining
	// Failed: crashed by an injected fault; its batch was orphaned back
	// to the controller queue. Dead silicon — no leakage — until the
	// next policy tick detects it and starts repair.
	Failed
	// Repairing: under repair after detection; returns to Off when the
	// fault schedule's repair window ends, so the policy re-boots it
	// through the normal scale-up path (revive-after-repair).
	Repairing
)

// String names the state for renderings.
func (s PowerState) String() string {
	switch s {
	case Off:
		return "off"
	case Booting:
		return "booting"
	case Idle:
		return "idle"
	case Active:
		return "active"
	case Draining:
		return "draining"
	case Failed:
		return "failed"
	case Repairing:
		return "repairing"
	default:
		return fmt.Sprintf("state(%d)", int(s))
	}
}

// Config bundles one controller run.
type Config struct {
	// Replica is the per-replica serving configuration at the *nominal*
	// operating point (model, design, mesh, batch cap, KV budget). Its
	// DVFS, Observe, Faults and Retry fields must be zero — the
	// controller owns them (see Faults and MaxRedispatch) — and so must
	// MaxQueue: the controller's queue is unbounded.
	Replica serve.Config
	// MinReplicas is the floor the policy may never drain below
	// (default 1; must be ≥ 1 so queued work always has an owner).
	MinReplicas int
	// MaxReplicas is the owned fleet size — the capex the deployment
	// bought and the ceiling the policy may scale to (default
	// DefaultMaxReplicas, max MaxControllerReplicas).
	MaxReplicas int
	// Tick is the policy decision interval in seconds (default
	// DefaultTick).
	Tick float64
	// ScaleUpLag is the off→ready boot latency in seconds (default
	// DefaultScaleUpLag; negative: boots are instant).
	ScaleUpLag float64
	// Ladder is the DVFS ladder, fastest first; Ladder[0] must be the
	// nominal point (default arch.DVFSLadder).
	Ladder []arch.DVFSPoint
	// Policy decides the target replica count and operating point each
	// tick (default TargetUtilization{}).
	Policy Policy
	// SLO judges per-request violations for the windowed accounting
	// (default DefaultSLO).
	SLO SLO
	// WindowWidth slices the timeline for SLO-violation minutes
	// (default serve.DefaultWindowWidth).
	WindowWidth float64
	// Book prices the run (zero value: every fleet.PriceBook default).
	Book fleet.PriceBook
	// Faults, when enabled, injects per-replica fault schedules drawn
	// from the spec (replica i's timeline is a pure function of
	// (Faults.Seed, i)): fail-stop crashes that orphan the in-flight
	// batch back to the controller queue, boot attempts that fail back
	// to Off, and straggler replicas whose rounds run slower.
	Faults faults.Spec
	// MaxRedispatch bounds how many times a crash-orphaned request is
	// re-queued before it is shed (default serve.DefaultMaxRedispatch).
	MaxRedispatch int

	// oneStep runs every round as one decode step (until = its start):
	// the reference the differential test holds leaping rounds to.
	oneStep bool
}

// withDefaults materializes the zero-value defaults.
func (c Config) withDefaults() Config {
	if c.MinReplicas == 0 {
		c.MinReplicas = 1
	}
	if c.MaxReplicas == 0 {
		c.MaxReplicas = DefaultMaxReplicas
	}
	if c.Tick == 0 {
		c.Tick = DefaultTick
	}
	if c.ScaleUpLag == 0 {
		c.ScaleUpLag = DefaultScaleUpLag
	} else if c.ScaleUpLag < 0 {
		c.ScaleUpLag = 0
	}
	if c.Ladder == nil {
		c.Ladder = arch.DVFSLadder()
	}
	if c.Policy == nil {
		c.Policy = TargetUtilization{}
	}
	if c.SLO == (SLO{}) {
		c.SLO = DefaultSLO()
	}
	if c.WindowWidth == 0 {
		c.WindowWidth = serve.DefaultWindowWidth
	}
	if c.Replica.Mesh.Nodes() == 0 {
		c.Replica.Mesh = noc.Single
	}
	if c.Replica.MaxBatch == 0 {
		c.Replica.MaxBatch = serve.DefaultMaxBatch
	}
	if c.MaxRedispatch == 0 {
		c.MaxRedispatch = serve.DefaultMaxRedispatch
	}
	return c
}

// Report is one controller run.
type Report struct {
	// Model, Design, Mesh, Trace, Policy identify the scenario.
	Model, Design, Mesh string
	Trace               serve.TraceInfo
	Policy              string

	// Requests and Completed count the trace; without faults they are
	// equal on return, with faults Completed + Shed == Requests.
	Requests, Completed int
	// Horizon is the simulated span in seconds (trace start to last
	// completion).
	Horizon float64
	// MinReplicas and MaxReplicas echo the config bounds.
	MinReplicas, MaxReplicas int

	// TTFT and Latency are request-level percentiles over the whole run.
	TTFT, Latency serve.Percentiles
	// Windows is the windowed SLO accounting; ViolationMinutes is its
	// headline number.
	Windows          *serve.Windows
	ViolationMinutes float64

	// PrefillSteps/DecodeSteps/MeanBatch mirror serve.Report.
	PrefillSteps, DecodeSteps int
	MeanBatch                 float64
	// Rounds counts the controller's serve.Engine.Round calls. A round
	// may leap over many decode steps, so Rounds is at most
	// PrefillSteps + DecodeSteps and usually far below. Not rendered.
	Rounds int
	// PeakQueue is the controller queue's high-water mark.
	PeakQueue int

	// Ticks counts policy decisions; ScaleUps/ScaleDowns count replica
	// power-up and power-down transitions the policy initiated;
	// DVFSShifts counts per-replica operating-point changes.
	Ticks, ScaleUps, ScaleDowns, DVFSShifts int

	// ActiveSeconds, IdleSeconds, BootSeconds, OffSeconds and
	// FailedSeconds partition replica-seconds (MaxReplicas × Horizon) by
	// power state; FailedSeconds covers Failed and Repairing (dead
	// silicon — no leakage, no service).
	ActiveSeconds, IdleSeconds, BootSeconds, OffSeconds, FailedSeconds float64
	// MeanActiveReplicas is ActiveSeconds / Horizon.
	MeanActiveReplicas float64

	// FaultsOn gates the availability block: set iff the run injected
	// faults. The remaining fields are zero on fault-free runs, so their
	// renderings stay byte-identical to builds that predate fault
	// injection.
	FaultsOn bool
	// Crashes counts fail-stop replica crashes; BootFailures counts boot
	// attempts that failed back to Off; Stragglers counts replicas
	// running slowed (their fault draw marked them slow nodes).
	Crashes, BootFailures, Stragglers int
	// Redispatched counts crash-orphaned requests re-queued to the
	// controller; Shed counts requests dropped after exhausting their
	// re-dispatch budget.
	Redispatched, Shed int
	// Availability is Completed / Requests; Nines is -log10 of the loss.
	Availability, Nines float64

	// DynamicEnergy, LeakageEnergy and TotalEnergy are the run's IT
	// joules: per-step switching energy, per-state static energy
	// (booting and idle replicas leak, off replicas do not), and their
	// sum.
	DynamicEnergy, LeakageEnergy, TotalEnergy float64

	// Day prices the run per wall-clock day: capex for every owned
	// (MaxReplicas) replica, energy and carbon for the joules drawn.
	Day fleet.DayCost
	// PerReplicaRate is the calibrated full-speed single-replica
	// capacity (req/s) the policies reason with.
	PerReplicaRate float64
}

// replica is one replica's controller-side state.
type replica struct {
	state     PowerState
	point     int     // ladder index applied from the next round on
	busyUntil float64 // end of the round in flight: busy while now < busyUntil
	bootReady float64 // boot completion (valid while Booting)
	accrued   float64 // wall clock up to which static power is billed
	batch     *serve.Batch

	// Fault state (zero when the run injects none).
	slow      float64         // straggler step multiplier (1 when healthy)
	down      faults.Interval // next (or crashing) down window
	haveDown  bool
	bootTries int     // boot attempts, the boot-failure draw counter
	repairAt  float64 // repair completion (valid while Repairing)
}

// controller is the pooled run state around the serving engine.
type controller struct {
	reps []replica

	idleLeak []float64 // static watts per ladder point

	tickArrivals []int // prescanned arrivals per tick window

	// The loop's own event sources, which nextEvent reads next to the
	// replicas': the next policy tick, the stream's lookahead arrival,
	// and whether down windows can crash a replica.
	nextTick    float64
	pending     serve.Request
	havePending bool
	faulty      bool
}

var ctrlPool = sync.Pool{New: func() any { return new(controller) }}

// getController borrows a reset controller.
func getController(replicas int) *controller {
	c := ctrlPool.Get().(*controller)
	if cap(c.reps) < replicas {
		c.reps = make([]replica, replicas)
	}
	c.reps = c.reps[:replicas]
	clear(c.reps)
	c.idleLeak = c.idleLeak[:0]
	c.tickArrivals = c.tickArrivals[:0]
	return c
}

// calibrate measures the full-speed single-replica capacity the policies
// reason with: a short deterministic capacity search, as a one-replica
// fleet.Plan cell, on the trace's own length profile and seed.
func calibrate(cfg Config, tc serve.TraceConfig) (float64, error) {
	res := fleet.Plan(fleet.PlanSpec{
		Base:  cfg.Replica,
		Cells: []fleet.Cell{{Design: cfg.Replica.Design, Mesh: cfg.Replica.Mesh, Replicas: 1}},
		Trace: serve.TraceConfig{
			Kind: serve.Poisson, Requests: 24, Seed: tc.Seed, Lengths: tc.Lengths,
		},
		Iters: 3,
	})[0]
	if res.Err != nil {
		return 0, res.Err
	}
	if res.Capacity <= 0 {
		return 0, fmt.Errorf("autoscale: replica has no measurable capacity")
	}
	return res.Capacity, nil
}

// Run drives the trace through the controller and returns the report.
// The whole loop is serial — arrivals, round ends, boot completions and
// policy ticks are processed in deterministic order at each event time —
// so the report is byte-identical at any runner parallelism. Step costs
// go through the replica's StepFunc (default runner.Simulate), priced
// once per step shape, and steady-state ticks allocate nothing on top of
// the warmed step.
func Run(cfg Config, tc serve.TraceConfig) (Report, error) {
	cfg = cfg.withDefaults()
	if err := validateConfig(cfg); err != nil {
		return Report{}, err
	}
	perReplicaRate, err := calibrate(cfg, tc)
	if err != nil {
		return Report{}, err
	}
	c := getController(cfg.MaxReplicas)
	defer ctrlPool.Put(c)
	return c.run(cfg, tc, perReplicaRate)
}

// validateConfig checks the controller-specific invariants.
func validateConfig(cfg Config) error {
	if cfg.Replica.Observe != nil {
		return fmt.Errorf("autoscale: Replica.Observe must be nil — the controller owns the hook")
	}
	if !cfg.Replica.DVFS.IsNominal() {
		return fmt.Errorf("autoscale: Replica.DVFS must be nominal — the controller owns the operating point")
	}
	if cfg.Replica.OverloadOn() {
		return fmt.Errorf("autoscale: Replica admission/brownout/client-retry must be unset — overload control and autoscaling both steer capacity, compose them through fleet.Run")
	}
	if cfg.MinReplicas < 1 {
		return fmt.Errorf("autoscale: min replicas %d must be at least 1", cfg.MinReplicas)
	}
	if cfg.MaxReplicas < cfg.MinReplicas || cfg.MaxReplicas > MaxControllerReplicas {
		return fmt.Errorf("autoscale: max replicas %d outside [%d, %d]", cfg.MaxReplicas, cfg.MinReplicas, MaxControllerReplicas)
	}
	if cfg.Tick <= 0 {
		return fmt.Errorf("autoscale: tick %g must be positive", cfg.Tick)
	}
	if len(cfg.Ladder) == 0 || !cfg.Ladder[0].IsNominal() {
		return fmt.Errorf("autoscale: ladder must be non-empty with the nominal point first")
	}
	if err := cfg.Faults.Validate(); err != nil {
		return err
	}
	if cfg.Replica.Faults != nil {
		return fmt.Errorf("autoscale: Replica.Faults must be nil — the controller owns the schedules (see Config.Faults)")
	}
	if cfg.Replica.Retry != (serve.RetryPolicy{}) {
		return fmt.Errorf("autoscale: Replica.Retry must be zero — crash orphans re-queue by Config.MaxRedispatch")
	}
	if cfg.Replica.MaxQueue != 0 {
		return fmt.Errorf("autoscale: Replica.MaxQueue %d must be 0 — the controller's queue is unbounded", cfg.Replica.MaxQueue)
	}
	if cfg.MaxRedispatch < 0 {
		return fmt.Errorf("autoscale: redispatch budget %d must be non-negative", cfg.MaxRedispatch)
	}
	return nil
}

// prescan draws the trace once to count arrivals per tick window (the
// oracle's foreknowledge and everyone's NextArrivalRate) and to bound
// the horizon for window reservation.
func (c *controller) prescan(cfg Config, tc serve.TraceConfig) (lastArrival float64, err error) {
	src, err := serve.NewStream(tc)
	if err != nil {
		return 0, err
	}
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		i := int(r.Arrival / cfg.Tick)
		for len(c.tickArrivals) <= i {
			c.tickArrivals = append(c.tickArrivals, 0)
		}
		c.tickArrivals[i]++
		lastArrival = r.Arrival
	}
	return lastArrival, nil
}

// run is the event loop. See the package comment for the scheduling
// semantics; the invariants are (1) every state change happens at a
// single event time, with boots, arrivals, round ends, the policy tick
// and the work scan processed in that fixed order, and (2) all step
// bookkeeping (admission, energy, completions) happens at round *start*,
// with busyUntil marking when the results become visible.
func (c *controller) run(cfg Config, tc serve.TraceConfig, perReplicaRate float64) (Report, error) {
	// Per-ladder-point idle static power. A busy or idle replica at point
	// i leaks idleLeak[i]; a booting replica leaks at the nominal point
	// (index 0) — it is powering up the full rail.
	nodes := cfg.Replica.Mesh.SpeedupFactor()
	var cost arch.CostTable
	for _, p := range cfg.Ladder {
		arch.Cost45nm.AtDVFS(p, &cost)
		c.idleLeak = append(c.idleLeak,
			cfg.Replica.Design.LeakageWatts(&cost)*nodes+cfg.Replica.Mesh.LeakageWatts(&cost))
	}

	// Per-replica fault schedules: replica i's crash timeline, straggler
	// draw and boot-failure stream are a pure function of (Faults.Seed, i),
	// independent of load — the anchor the determinism contract hangs on.
	c.faulty = cfg.Faults.Enabled()
	var scheds []*faults.Schedule
	if c.faulty {
		scheds = make([]*faults.Schedule, cfg.MaxReplicas)
		for i := range scheds {
			s, err := faults.New(cfg.Faults, i)
			if err != nil {
				return Report{}, err
			}
			scheds[i] = s
		}
	}

	lastArrival, err := c.prescan(cfg, tc)
	if err != nil {
		return Report{}, err
	}
	src, err := serve.NewStream(tc)
	if err != nil {
		return Report{}, err
	}
	total := src.Len()

	rep := Report{
		Model: cfg.Replica.Model.Name, Design: cfg.Replica.Design.Name, Mesh: cfg.Replica.Mesh.String(),
		Trace: src.Info(), Policy: cfg.Policy.Name(),
		Requests: total, MinReplicas: cfg.MinReplicas, MaxReplicas: cfg.MaxReplicas,
		PerReplicaRate: perReplicaRate,
	}
	wins := serve.NewWindows(serve.WindowSpec{Width: cfg.WindowWidth, TTFT: cfg.SLO.TTFT, Latency: cfg.SLO.Latency})
	wins.Reserve(lastArrival)
	rep.Windows = wins

	// One serving engine, one batch per owned replica behind its shared
	// queue; completions feed the windowed SLO accounting.
	ecfg := cfg.Replica
	ecfg.Observe = wins.Observe
	eng, err := serve.NewEngine(ecfg, cfg.MaxReplicas)
	if err != nil {
		return Report{}, err
	}
	defer eng.Release()

	var (
		now        float64
		busyTick   float64 // busy replica-seconds attributed to the current tick
		arrivals   int     // arrivals in the current tick
		leakEnergy float64
	)

	// accrue bills one replica's static power and state-seconds up to t.
	// A busy replica's clock already sits at its round end (startRound
	// bills the whole span up front), which can be *ahead* of t — never
	// rewind it, or the tail of the round would be billed twice.
	accrue := func(rp *replica, t float64) {
		if t <= rp.accrued {
			return
		}
		dt := t - rp.accrued
		rp.accrued = t
		switch rp.state {
		case Off:
			rep.OffSeconds += dt
		case Booting:
			rep.BootSeconds += dt
			leakEnergy += c.idleLeak[0] * dt
		case Idle:
			rep.IdleSeconds += dt
			leakEnergy += c.idleLeak[rp.point] * dt
		case Active, Draining:
			// Busy spans are accrued at round start (below); an
			// Active/Draining replica is between rounds only
			// instantaneously.
			rep.ActiveSeconds += dt
			leakEnergy += c.idleLeak[rp.point] * dt
		case Failed, Repairing:
			// Dead silicon: serves nothing, leaks nothing.
			rep.FailedSeconds += dt
		}
	}

	// startRound runs one engine round on rp beginning at t — admissions
	// only while Active, never while Draining — at rp's operating point
	// and straggler factor. All costs and completions are computed here;
	// the round's wall span [t, end] is what the replica is busy for.
	// The round leaps over decode steps up to the loop's next event, so
	// no step boundary it skips is one where a one-step round would act
	// differently. A round runs one step when a replica later in this
	// scan may also start one now: that round's end is an event the leap
	// cannot see yet, at which the later replica could take the queue
	// head this one is KV-blocked on or, at the end of the run, go idle.
	startRound := func(i int, t float64) error {
		rp := &c.reps[i]
		until := t
		if !cfg.oneStep && !c.startsAfter(i, t, eng.QueueLen() > 0) {
			until = c.nextEvent(t)
		}
		rep.Rounds++
		end, err := eng.Round(rp.batch, t, cfg.Ladder[rp.point], rp.slow, rp.state == Active, until)
		if err != nil {
			return err
		}
		if end > t {
			rp.busyUntil, rp.accrued = end, end
			busyTick += end - t
			rep.ActiveSeconds += end - t
			leakEnergy += c.idleLeak[rp.point] * (end - t)
		}
		return nil
	}

	// Initial fleet: MinReplicas idle and warm at t=0 (a deployment
	// starts provisioned), the rest off. Every replica serves at its
	// straggler factor (1 when healthy — ×1.0 is bit-exact, so the
	// fault-free path reproduces the pre-faults bytes).
	for i := range c.reps {
		c.reps[i].batch = eng.Batch(i)
		c.reps[i].slow = 1
		if c.faulty {
			if s := scheds[i].Slowdown(); s > 1 {
				c.reps[i].slow = s
				rep.Stragglers++
			}
			c.reps[i].down, c.reps[i].haveDown = scheds[i].DownAfter(0)
		}
		if i < cfg.MinReplicas {
			c.reps[i].state = Idle
		}
	}

	c.pending, c.havePending = src.Next()
	if c.havePending {
		if err := eng.Validate(c.pending); err != nil {
			return Report{}, err
		}
	}
	c.nextTick = cfg.Tick
	tickIdx := 0 // index of the window ending at nextTick

	countStates := func() (ready, booting, draining, inflight int) {
		for i := range c.reps {
			switch c.reps[i].state {
			case Idle, Active:
				ready++
			case Booting:
				booting++
			case Draining:
				draining++
			case Off, Failed, Repairing:
				// Unpowered (or dead): counts toward no pool.
			}
			inflight += c.reps[i].batch.Len()
		}
		return
	}

	for eng.Completed()+rep.Shed < total {
		now = c.nextEvent(now)

		// 1. Boot completions (the boot-failure draw decides whether the
		// attempt sticks) and repair completions (back to Off, so the
		// policy re-boots through the normal scale-up path).
		for i := range c.reps {
			rp := &c.reps[i]
			if rp.state == Booting && rp.bootReady <= now {
				accrue(rp, now)
				attempt := rp.bootTries
				rp.bootTries++
				if c.faulty && cfg.Faults.BootFails(i, attempt) {
					rep.BootFailures++
					rp.state = Off
				} else {
					rp.state = Idle
				}
			}
			if rp.state == Repairing && rp.repairAt <= now {
				accrue(rp, now)
				rp.state = Off
			}
		}
		// 2. Arrivals.
		for c.havePending && c.pending.Arrival <= now {
			arrivals++
			eng.Enqueue(c.pending)
			if q := eng.QueueLen(); q > rep.PeakQueue {
				rep.PeakQueue = q
			}
			c.pending, c.havePending = src.Next()
			if c.havePending {
				if err := eng.Validate(c.pending); err != nil {
					return Report{}, err
				}
			}
		}
		// 3. Round ends become visible as now reaches busyUntil.
		// 3½. Crashes: a powered replica whose down window has opened
		// fails stop — its in-flight batch is orphaned back to the
		// controller queue (or shed once its re-dispatch budget is
		// spent), its KV cache is gone, and it sits dead until the next
		// tick detects it. A round already in flight commits first (its
		// results were priced at round start); the crash fires at the
		// round boundary. Down windows that passed while the replica was
		// unpowered never fire.
		if c.faulty {
			for i := range c.reps {
				rp := &c.reps[i]
				for rp.haveDown && rp.down.End <= now && !poweredState(rp.state) {
					rp.down, rp.haveDown = scheds[i].DownAfter(rp.down.End)
				}
				if rp.haveDown && rp.down.Start <= now && poweredState(rp.state) && rp.busyUntil <= now {
					accrue(rp, now)
					rep.Crashes++
					requeued, shed := eng.Requeue(rp.batch, cfg.MaxRedispatch)
					rep.Redispatched += requeued
					rep.Shed += shed
					rp.state = Failed
					if q := eng.QueueLen(); q > rep.PeakQueue {
						rep.PeakQueue = q
					}
				}
			}
		}
		// 4. Policy tick.
		if now >= c.nextTick {
			// Failure detection rides the tick: a Failed replica is
			// noticed now, enters repair, and comes back (as Off) when
			// its down window ends — or immediately if it already has.
			if c.faulty {
				for i := range c.reps {
					rp := &c.reps[i]
					if rp.state != Failed {
						continue
					}
					accrue(rp, now)
					rp.state = Repairing
					rp.repairAt = rp.down.End
					if rp.repairAt < now {
						rp.repairAt = now
					}
					rp.down, rp.haveDown = scheds[i].DownAfter(rp.down.End)
				}
			}
			ready, booting, draining, inflight := countStates()
			obs := Observation{
				Now: now, Tick: cfg.Tick,
				QueueLen: eng.QueueLen(), InFlight: inflight,
				Ready: ready, Booting: booting, Draining: draining,
				Powered:     ready + booting,
				MinReplicas: cfg.MinReplicas, MaxReplicas: cfg.MaxReplicas,
				BatchCap: cfg.Replica.MaxBatch, Ladder: cfg.Ladder,
				ArrivalRate: float64(arrivals) / cfg.Tick,
				ReplicaRate: perReplicaRate,
			}
			if ready > 0 {
				obs.Utilization = busyTick / (float64(ready) * cfg.Tick)
			}
			if n := tickIdx + 1; n < len(c.tickArrivals) {
				obs.NextArrivalRate = float64(c.tickArrivals[n]) / cfg.Tick
			}
			dec := cfg.Policy.Decide(obs)
			c.apply(cfg, dec, obs.Powered, now, accrue, &rep)
			busyTick = 0
			arrivals = 0
			rep.Ticks++
			tickIdx++
			c.nextTick += cfg.Tick
		}
		// 5. Work scan, in replica-index order.
		for i := range c.reps {
			rp := &c.reps[i]
			if rp.busyUntil > now {
				continue
			}
			var err error
			switch rp.state {
			case Draining:
				if rp.batch.Len() > 0 {
					err = startRound(i, now)
				} else {
					accrue(rp, now)
					rp.state = Off
				}
			case Active:
				if rp.batch.Len() > 0 || eng.QueueLen() > 0 {
					err = startRound(i, now)
				} else {
					accrue(rp, now)
					rp.state = Idle
				}
			case Idle:
				if eng.QueueLen() > 0 {
					accrue(rp, now)
					rp.state = Active
					err = startRound(i, now)
				}
			case Off, Booting, Failed, Repairing:
				// No work to scan: Off has nothing resident, Booting
				// replicas join the fleet at their bootReady event, and
				// Failed/Repairing silicon is dead.
			}
			if err != nil {
				return Report{}, err
			}
		}
	}

	// Close every replica's accrual at the end of the run. A still-busy
	// replica's final round is already billed through its round end;
	// extend the horizon to cover it, then bill everyone's tail state.
	for i := range c.reps {
		if rp := &c.reps[i]; rp.busyUntil > now {
			now = rp.busyUntil
		}
	}
	for i := range c.reps {
		accrue(&c.reps[i], now)
	}

	served := eng.Report()
	rep.Completed = served.Completed
	rep.TTFT, rep.Latency = served.TTFT, served.Latency
	rep.PrefillSteps, rep.DecodeSteps, rep.MeanBatch = served.PrefillSteps, served.DecodeSteps, served.MeanBatch
	rep.Horizon = now
	rep.ViolationMinutes = wins.ViolationMinutes()
	if rep.Horizon > 0 {
		rep.MeanActiveReplicas = rep.ActiveSeconds / rep.Horizon
	}
	rep.DynamicEnergy, rep.LeakageEnergy = served.DynamicEnergy, leakEnergy
	rep.TotalEnergy = served.DynamicEnergy + leakEnergy
	rep.FaultsOn = c.faulty
	if c.faulty {
		if rep.Requests > 0 {
			rep.Availability = float64(rep.Completed) / float64(rep.Requests)
		}
		rep.Nines = faults.Nines(rep.Availability)
	}
	day, err := fleet.PriceDay(cfg.Book, cfg.Replica.Design, cfg.Replica.Mesh,
		cfg.MaxReplicas, rep.TotalEnergy, rep.Horizon)
	if err != nil {
		return Report{}, err
	}
	rep.Day = day
	return rep, nil
}

// startsAfter reports whether a replica after i in the work scan may
// start a round at now: one that is not busy and holds a batch, or an
// Idle or Active one while requests are queued.
//
//mugi:noalloc
func (c *controller) startsAfter(i int, now float64, queued bool) bool {
	for j := i + 1; j < len(c.reps); j++ {
		rp := &c.reps[j]
		if rp.busyUntil <= now && (rp.batch.Len() > 0 || queued && (rp.state == Idle || rp.state == Active)) {
			return true
		}
	}
	return false
}

// nextEvent returns the loop's next event after now: the earliest of the
// pending arrival, the policy tick, and every replica's round end, boot
// completion, repair completion and due crash. A crash that is already
// due is clamped to now, so time never rewinds.
//
//mugi:noalloc
func (c *controller) nextEvent(now float64) float64 {
	t := c.nextTick
	if c.havePending && c.pending.Arrival < t {
		t = c.pending.Arrival
	}
	for i := range c.reps {
		rp := &c.reps[i]
		if rp.state == Booting && rp.bootReady < t {
			t = rp.bootReady
		}
		if rp.busyUntil > now && rp.busyUntil < t {
			t = rp.busyUntil
		}
		if rp.state == Repairing && rp.repairAt < t {
			t = rp.repairAt
		}
		//mugi:coldalloc inlined unknown-state panic arg; a replica's state is always known
		if c.faulty && rp.busyUntil <= now && rp.haveDown && poweredState(rp.state) && rp.down.Start < t {
			t = max(rp.down.Start, now)
		}
	}
	return t
}

// apply executes one policy decision over the powered (Booting, Idle or
// Active) replicas: un-drain, boot, drain or power off replicas toward
// the target, and move every powered replica to the chosen operating
// point. Selection order is deterministic: scale-up revives draining
// replicas (lowest index first — they are warm), then boots off
// replicas; scale-down cancels boots first (nothing in flight), then
// drains idle replicas, then active ones, highest index first.
//
//mugi:noalloc
func (c *controller) apply(cfg Config, dec Decision, powered int, now float64,
	accrue func(*replica, float64), rep *Report) {
	target := min(max(dec.Replicas, cfg.MinReplicas), cfg.MaxReplicas)
	point := 0
	for i, p := range cfg.Ladder {
		if p == dec.Point {
			point = i
			break
		}
	}

	for ; powered < target; powered++ {
		i := c.find(Draining, false)
		if i < 0 {
			i = c.find(Off, false)
		}
		if i < 0 {
			break // everything is already powered or dead
		}
		rp := &c.reps[i]
		accrue(rp, now)
		switch {
		case rp.state == Draining:
			rp.state = Active
		case dec.InstantBoot || cfg.ScaleUpLag == 0:
			rp.state, rp.point = Idle, point
		default:
			rp.state, rp.point = Booting, point
			rp.bootReady = now + cfg.ScaleUpLag
		}
		rep.ScaleUps++
	}

	for ; powered > target; powered-- {
		i := c.find(Booting, true)
		if i < 0 {
			i = c.find(Idle, true)
		}
		if i < 0 {
			i = c.find(Active, true)
		}
		if i < 0 {
			break
		}
		rp := &c.reps[i]
		accrue(rp, now)
		if rp.state == Active {
			rp.state = Draining
		} else {
			rp.state = Off // a booting or idle replica holds no batch
		}
		rep.ScaleDowns++
	}

	// Move every powered replica to the decided operating point. Busy
	// replicas finish their in-flight round at the old point (the round
	// was priced when it started); accrual boundaries keep idle leakage
	// billed at the right rate on both sides of the shift.
	for i := range c.reps {
		rp := &c.reps[i]
		switch rp.state {
		case Idle, Active, Draining:
			if rp.point != point {
				accrue(rp, now)
				rp.point = point
				rep.DVFSShifts++
			}
		case Off, Booting, Failed, Repairing:
			// Off has no operating point; a Booting replica keeps the
			// point it was assigned when its boot was decided; dead
			// silicon has no clock to shift.
		}
	}
}

// find returns the lowest index of a replica in state s (the highest
// with last set), or -1 when none is.
func (c *controller) find(s PowerState, last bool) int {
	for j := range c.reps {
		i := j
		if last {
			i = len(c.reps) - 1 - j
		}
		if c.reps[i].state == s {
			return i
		}
	}
	return -1
}

// poweredState reports whether a state has its rail up — the states an
// injected down window can crash.
func poweredState(s PowerState) bool {
	switch s {
	case Booting, Idle, Active, Draining:
		return true
	case Off, Failed, Repairing:
		return false
	default:
		panic("autoscale: unknown power state " + s.String())
	}
}
