package autoscale

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"

	"mugi/internal/faults"
	"mugi/internal/raceflag"
	"mugi/internal/serve"
)

// leapMoves names the Report fields a leaping round may move, each
// within leapTolerance relative (driftTolerance where a row says so). A
// round bills its busy span and the leakage of that span with one
// subtraction, end − start, where one-step rounds add it one step at a
// time, so busy seconds and what is priced from them regroup their
// floating-point sums. Everything else, dynamic energy, horizon and
// every latency included, must be bit-identical.
var leapMoves = []string{"ActiveSeconds", "MeanActiveReplicas", "LeakageEnergy", "TotalEnergy", "Day."}

const leapTolerance = 1e-12

// driftTolerance is the naive-summation error bound of a one-step
// reference that made rounds additions into each busy sum: on the
// golden week and the lockstep setup it adds so many equal step spans
// that its own rounding drifts past leapTolerance from the exact total.
// On the week, 822,465 one-step rounds drift the leakage sum 1.2e-12
// from the exact sum of its spans, while the leaping side stays within
// 5e-14 of it.
func driftTolerance(rounds int) float64 { return max(leapTolerance, float64(rounds)*0x1p-53) }

// leapSetups are the controller configurations every grid trace runs
// under: faults crash replicas mid-leap and fail boots, a tight KV
// budget holds queue heads back, a small batch with a slow boot keeps
// replicas full behind a queue, and lockstep replicas start rounds at
// shared instants.
var leapSetups = []struct {
	name string
	mut  func(*Config, int64)
	// drift marks a setup whose float checks use driftTolerance.
	drift bool
}{
	{"default", func(*Config, int64) {}, false},
	{"faults", withLeapFaults, false},
	{"kv", func(c *Config, _ int64) { c.Replica.KVBudgetBytes = 3 << 28 }, false},
	{"kv+faults", func(c *Config, seed int64) {
		c.Replica.KVBudgetBytes = 3 << 28
		withLeapFaults(c, seed)
	}, false},
	{"batch4+lag100", func(c *Config, _ int64) {
		c.Replica.MaxBatch = 4
		c.ScaleUpLag = 100
	}, false},
	// One request per replica and one context bucket for the whole
	// window give every step one shape, so replicas that admit at one
	// instant step in lockstep and start rounds together again and
	// again: the shared instants where a leap could miss a round end
	// that a replica later in the same scan is about to create.
	{"lockstep", func(c *Config, _ int64) {
		c.Replica.MaxBatch = 1
		c.Replica.CtxBucket = 1 << 20
	}, true},
}

// withLeapFaults injects faultyCfg's fault mix at twice its crash rate,
// drawn per seed.
func withLeapFaults(c *Config, seed int64) {
	c.Faults = faults.Spec{MTBF: 3600, MTTR: 600, StragglerProb: 0.3, BootFailProb: 0.2, Seed: seed}
}

// leapTraces are diurnal traces at four rates, from a mostly idle fleet
// to a saturated one; the faster ones are shorter to keep the grid
// quick.
var leapTraces = []struct {
	rate     float64
	requests int
	period   float64
}{
	{0.02, 1728, 86400},
	{0.05, 2160, 43200},
	{0.5, 1800, 3600},
	{2, 3600, 1800},
}

// sharedEndRows are small runs whose last rounds start at an instant two
// lockstep replicas share (batches of one or two requests over one
// context bucket, replicas booted together by a step policy). A leap that did not stop
// for the round end a replica later in the same scan was about to
// create would end the run before that replica went idle, and bill its
// idle tail as active.
var sharedEndRows = []struct {
	min, max  int
	lag, tick float64
	switchAt  float64
	maxBatch  int
	rate      float64
	requests  int
	seed      int64
}{
	{1, 3, 1, 20, 40, 2, 0.5, 6, 142},
	{1, 3, -1, 5, 5, 1, 5, 3, 201},
	{2, 4, 10, 5, 5, 1, 5, 4, 227},
	{1, 4, -1, 60, 120, 1, 2, 13, 317},
}

// TestLeapsMatchOneStepRounds is the differential gate on leaping
// controller rounds. Every grid config runs twice: with rounds that leap
// to the controller's next event, and with one-step rounds (until = the
// round's start), the schedule the controller's goldens were first
// pinned with. The rendered comparisons and every integer field must be
// equal, every float bit-identical except the leapMoves fields, and both
// sides must conserve requests and partition replica-seconds. Small runs
// that end at an instant lockstep replicas share follow the grid, the
// golden week closes it, and leaping must cut its rounds at least tenfold.
// Under the race detector each row runs one seed on a quarter of its
// trace and the week is skipped; the plain run covers the whole grid.
func TestLeapsMatchOneStepRounds(t *testing.T) {
	seeds, scale := []int64{1, 2, 3}, 1
	if raceflag.Enabled {
		seeds, scale = seeds[:1], 4
	}
	// The largest relative move of each float, by setup kind.
	moves := map[bool]map[string]float64{false: {}, true: {}}
	for _, tr := range leapTraces {
		for _, setup := range leapSetups {
			for _, pol := range Policies() {
				for _, seed := range seeds {
					cfg := baseCfg()
					cfg.Policy = pol
					setup.mut(&cfg, seed)
					tc := serve.TraceConfig{Kind: serve.Diurnal, Rate: tr.rate, Requests: tr.requests / scale, Seed: seed, Period: tr.period / float64(scale)}
					name := fmt.Sprintf("%g req/s %s %s seed %d", tr.rate, setup.name, pol.Name(), seed)
					compareLeaps(t, name, cfg, tc, setup.drift, moves[setup.drift])
				}
			}
		}
	}
	for _, r := range sharedEndRows {
		cfg := baseCfg()
		cfg.MinReplicas, cfg.MaxReplicas = r.min, r.max
		cfg.ScaleUpLag, cfg.Tick = r.lag, r.tick
		cfg.Replica.MaxBatch, cfg.Replica.CtxBucket = r.maxBatch, 1<<20
		cfg.Policy = stepPolicy{before: r.min, after: r.max, switchAt: r.switchAt}
		tc := serve.TraceConfig{Kind: serve.Poisson, Rate: r.rate, Requests: r.requests, Seed: r.seed}
		compareLeaps(t, fmt.Sprintf("shared end, seed %d", r.seed), cfg, tc, false, moves[true])
	}
	logMoves(t, "grid", moves[false])
	logMoves(t, "lockstep", moves[true])
	if !raceflag.Enabled {
		moved := map[string]float64{}
		leap, step := compareLeaps(t, "golden week", baseCfg(), weekTrace(0.02), true, moved)
		if leap.Rounds*10 > leap.DecodeSteps {
			t.Errorf("golden week: %d rounds for %d decode steps, want at least 10x fewer", leap.Rounds, leap.DecodeSteps)
		}
		logMoves(t, "golden week", moved)
		t.Logf("golden week: %d rounds leaping, %d one-step, %d decode steps", leap.Rounds, step.Rounds, leap.DecodeSteps)
	}
}

// logMoves logs the largest relative move of each float field.
func logMoves(t *testing.T, name string, moved map[string]float64) {
	paths := make([]string, 0, len(moved))
	for p := range moved {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		t.Logf("%s: largest relative move of %s: %.2g", name, p, moved[p])
	}
}

// compareLeaps runs one config leaping and in one-step rounds, checks
// the pair, and returns the two controller reports. leapMoves fields may
// move within leapTolerance, or driftTolerance with drift set. moved
// collects the largest relative move of each float field.
func compareLeaps(t *testing.T, name string, cfg Config, tc serve.TraceConfig, drift bool, moved map[string]float64) (leap, step Report) {
	t.Helper()
	st, err := RunStatic(cfg, tc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	leap, err = Run(cfg, tc)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	cfg.oneStep = true
	step, err = Run(cfg, tc)
	if err != nil {
		t.Fatalf("%s one-step: %v", name, err)
	}
	if a, b := compare(st, leap).String(), compare(st, step).String(); a != b {
		t.Errorf("%s: rendering differs:\n--- leaping ---\n%s--- one-step ---\n%s", name, a, b)
	}
	checkReportInvariants(t, name+" leaping", leap)
	checkReportInvariants(t, name+" one-step", step)
	if leap.Rounds > step.Rounds {
		t.Errorf("%s: %d rounds leaping, more than %d one-step", name, leap.Rounds, step.Rounds)
	}
	tol := leapTolerance
	if drift {
		tol = driftTolerance(step.Rounds)
	}
	diffReport(t, name, "", reflect.ValueOf(leap), reflect.ValueOf(step), tol, moved)
	return leap, step
}

// checkReportInvariants holds a controller report to request
// conservation and to the replica-seconds partition of the owned fleet's
// wall clock.
func checkReportInvariants(t *testing.T, name string, r Report) {
	t.Helper()
	if r.Completed+r.Shed != r.Requests {
		t.Errorf("%s: completed %d + shed %d != requests %d", name, r.Completed, r.Shed, r.Requests)
	}
	total := r.ActiveSeconds + r.IdleSeconds + r.BootSeconds + r.OffSeconds + r.FailedSeconds
	want := float64(r.MaxReplicas) * r.Horizon
	if math.Abs(total-want) > 1e-9*want {
		t.Errorf("%s: state seconds %v do not partition %d × %v = %v", name, total, r.MaxReplicas, r.Horizon, want)
	}
}

// diffReport walks two values field by field: Rounds may differ,
// leapMoves floats may move within tol, and everything else must be
// equal.
func diffReport(t *testing.T, name, path string, a, b reflect.Value, tol float64, moved map[string]float64) {
	t.Helper()
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			p := a.Type().Field(i).Name
			if path != "" {
				p = path + "." + p
			}
			diffReport(t, name, p, a.Field(i), b.Field(i), tol, moved)
		}
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			if a.IsNil() != b.IsNil() {
				t.Errorf("%s: %s nil on one side only", name, path)
			}
			return
		}
		diffReport(t, name, path, a.Elem(), b.Elem(), tol, moved)
	case reflect.Slice:
		if a.Len() != b.Len() {
			t.Errorf("%s: %s has %d entries leaping, %d one-step", name, path, a.Len(), b.Len())
			return
		}
		for i := range a.Len() {
			diffReport(t, name, fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i), tol, moved)
		}
	case reflect.Float64:
		x, y := a.Float(), b.Float()
		if x == y || math.IsNaN(x) && math.IsNaN(y) {
			return
		}
		rel := math.Abs(x-y) / math.Max(math.Abs(x), math.Abs(y))
		if !leapMayMove(path) || !(rel <= tol) {
			t.Errorf("%s: %s is %v leaping, %v one-step (relative %.2g)", name, path, x, y, rel)
		}
		moved[path] = max(moved[path], rel)
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() && path != "Rounds" {
			t.Errorf("%s: %s is %d leaping, %d one-step", name, path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			t.Errorf("%s: %s is %v leaping, %v one-step", name, path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			t.Errorf("%s: %s is %q leaping, %q one-step", name, path, a.String(), b.String())
		}
	default:
		t.Fatalf("%s: %s has kind %s, which diffReport cannot compare", name, path, a.Kind())
	}
}

// leapMayMove reports whether path is, or lies under, a leapMoves field.
func leapMayMove(path string) bool {
	for _, f := range leapMoves {
		if path == f || strings.HasSuffix(f, ".") && strings.HasPrefix(path, f) {
			return true
		}
	}
	return false
}
