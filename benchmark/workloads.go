package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"time"

	"mugi"
	"mugi/internal/autoscale"
	"mugi/internal/fleet"
	"mugi/internal/infer"
	"mugi/internal/runner"
	"mugi/internal/serve"
	"mugi/internal/sim"
)

// workload is one benchmark workload: what its throughput counts and how
// to set it up for a seed and scale.
type workload struct {
	name  string
	item  string
	setup func(seed int64, scale float64) (bench, error)
}

// workloads are the six workloads, in BENCHMARK.json order. README.md
// records why each was chosen and which layer it stresses.
var workloads = []workload{
	{"stream_long", "simulated requests", newStreamLong},
	{"fleet_day", "simulated requests", newFleetDay},
	{"autoscale_day", "simulated requests", newAutoscaleDay},
	{"plan_sweep", "cells and entries", newPlanSweep},
	{"dse_points", "simulator passes", newDSEPoints},
	{"vlp_decode", "decoded tokens", newVLPDecode},
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// Unit sizes at scale 1, chosen so one unit takes 0.3 to 1.3 s on a
// 2-vCPU x86-64 host and a 14 s run measures about 10 to 40 units.
const (
	streamRequests = 40_000
	dayRequests    = 1728 // one day at 0.02 req/s
	dseChunk       = 16_384
	dseChunks      = 8
	vlpTokens      = 512
	vlpPrompt      = 4
)

// scaled multiplies a unit size by scale, keeping at least lo.
func scaled(n int, scale float64, lo int) int {
	return max(lo, int(math.Round(float64(n)*scale)))
}

// unitSeed derives unit k's input seed from the run seed by splitmix64.
func unitSeed(seed int64, k int) int64 {
	if k == warmup {
		seed = 0
	}
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(k+2)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) >> 1)
}

// checkReport checks a serving report's accounting: every request
// completed, shed or orphaned, in total and per class, and no NaN or Inf.
func checkReport(r serve.Report) error {
	if r.Completed+r.Shed+r.Orphaned != r.Requests {
		return fmt.Errorf("%d completed + %d shed + %d orphaned != %d requests", r.Completed, r.Shed, r.Orphaned, r.Requests)
	}
	if r.TenantsOn {
		for c, s := range r.Classes {
			if s.Completed+s.Shed+s.Orphaned != s.Requests {
				return fmt.Errorf("class %d: %d completed + %d shed + %d orphaned != %d requests", c, s.Completed, s.Shed, s.Orphaned, s.Requests)
			}
		}
	}
	return checkFinite("report", reflect.ValueOf(r))
}

// checkFinite walks v and rejects any NaN or infinite float. The one
// infinity reports may carry is a +Inf Nines field, which encodes perfect
// availability.
func checkFinite(path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Float32, reflect.Float64:
		x := v.Float()
		if math.IsNaN(x) || (math.IsInf(x, 0) && !(math.IsInf(x, 1) && strings.HasSuffix(path, ".Nines"))) {
			return fmt.Errorf("%s is %v", path, x)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := checkFinite(path+"."+v.Type().Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			if err := checkFinite(path+"["+strconv.Itoa(i)+"]", v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		iter := v.MapRange()
		for iter.Next() {
			if err := checkFinite(fmt.Sprintf("%s[%v]", path, iter.Key()), iter.Value()); err != nil {
				return err
			}
		}
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			return checkFinite(path, v.Elem())
		}
	}
	return nil
}

// serveCounts records a serving report's scheduler counters.
func serveCounts(u *unitCtx, r serve.Report) {
	u.counts["serve.steps"] = float64(r.PrefillSteps + r.DecodeSteps)
	u.counts["serve.mean_batch"] = r.MeanBatch
	u.counts["serve.kv_deferred"] = float64(r.KVQueuedRequests)
}

// ---- stream_long ----

// streamLong streams Poisson chat traffic through one Mugi(256) replica on
// a 4x4 mesh: the scheduler over the step-cost cache, nearly all hits.
type streamLong struct {
	seed     int64
	requests int
}

func newStreamLong(seed int64, scale float64) (bench, error) {
	return &streamLong{seed: seed, requests: scaled(streamRequests, scale, 50)}, nil
}

func (b *streamLong) unit(k int, u *unitCtx) error {
	src, err := serve.NewStream(serve.TraceConfig{Kind: serve.Poisson, Rate: 0.5, Requests: b.requests, Seed: unitSeed(b.seed, k)})
	if err != nil {
		return err
	}
	src = u.tr.stream(src)
	cfg := serve.Config{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(4, 4), Simulate: u.tr.stepFunc()}
	var rep serve.Report
	if err := u.timed(func() (err error) {
		id := u.tr.begin("serve", "serve.RunStream")
		rep, err = serve.RunStream(cfg, src)
		u.tr.end(id)
		return err
	}); err != nil {
		return err
	}
	u.items = float64(rep.Completed + rep.Shed + rep.Orphaned)
	u.report.WriteString(rep.String())
	serveCounts(u, rep)
	if rep.Completed != b.requests {
		return fmt.Errorf("completed %d of %d requests", rep.Completed, b.requests)
	}
	return checkReport(rep)
}

func (b *streamLong) finish() (map[string]float64, error) { return nil, nil }

// ---- fleet_day ----

// fleetDay runs one simulated day of tenanted flash-crowd traffic on two
// JSQ replicas with the whole overload and fault stack: admission,
// brownout, client retries, crashes with failover, and circuit breakers.
type fleetDay struct {
	seed     int64
	requests int
}

func newFleetDay(seed int64, scale float64) (bench, error) {
	return &fleetDay{seed: seed, requests: scaled(dayRequests, scale, 16)}, nil
}

func (b *fleetDay) unit(k int, u *unitCtx) error {
	s := unitSeed(b.seed, k)
	cfg := fleet.Config{
		Replica: serve.Config{
			Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(2, 2),
			MaxQueue: 12, MaxBatch: 8,
			Admission:   &mugi.AdmissionSpec{},
			Brownout:    &mugi.BrownoutSpec{Steps: mugi.DefaultBrownoutSteps(), HighWater: 8, Dwell: 10},
			ClientRetry: mugi.ClientRetrySpec{Backoff: 15, MaxAttempts: 2},
			Simulate:    u.tr.stepFunc(),
		},
		Replicas: 2,
		Policy:   fleet.JSQ,
		Faults:   mugi.FaultSpec{MTBF: 7200, MTTR: 600, Seed: s},
		Breaker:  &mugi.BreakerSpec{},
	}
	src, err := serve.NewStream(serve.TraceConfig{
		Kind: serve.Flashcrowd, Rate: 0.02, Requests: b.requests, Seed: s,
		SurgeFactor: 4, SurgeSpan: 600, SurgePeriod: 7200,
		Tenants: []mugi.TenantSpec{
			{Class: mugi.TenantInteractive, Share: 0.3},
			{Class: mugi.TenantStandard, Share: 0.4},
			{Class: mugi.TenantBestEffort, Share: 0.3},
		},
	})
	if err != nil {
		return err
	}
	src = u.tr.stream(src)
	var rep fleet.Report
	if err := u.timed(func() (err error) {
		id := u.tr.begin("fleet", "fleet.Run")
		rep, err = fleet.Run(cfg, src)
		u.tr.end(id)
		return err
	}); err != nil {
		return err
	}
	f := rep.Fleet
	u.items = float64(f.Completed + f.Shed + f.Orphaned)
	u.report.WriteString(rep.String())
	serveCounts(u, f)
	trips := 0
	for _, n := range rep.BreakerTrips {
		trips += n
	}
	u.counts["fleet.crashes"] = float64(f.Crashes)
	u.counts["fleet.redispatched"] = float64(f.Redispatched)
	u.counts["fleet.shed"] = float64(f.Shed)
	u.counts["fleet.breaker_trips"] = float64(trips)
	u.counts["overload.evicted"] = float64(f.Evicted)
	u.counts["overload.degraded"] = float64(f.Degraded)
	u.counts["overload.client_retries"] = float64(f.ClientRetries)
	if err := checkReport(f); err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	for i, r := range rep.Replicas {
		if err := checkReport(r); err != nil {
			return fmt.Errorf("replica %d: %w", i, err)
		}
	}
	return nil
}

func (b *fleetDay) finish() (map[string]float64, error) { return nil, nil }

// ---- autoscale_day ----

// autoscaleDay compares the always-on static fleet with the online
// controller over a diurnal day, up to four Mugi(256) 4x4 replicas.
type autoscaleDay struct {
	seed     int64
	requests int
}

func newAutoscaleDay(seed int64, scale float64) (bench, error) {
	return &autoscaleDay{seed: seed, requests: scaled(dayRequests, scale, 16)}, nil
}

func (b *autoscaleDay) unit(k int, u *unitCtx) error {
	cfg := autoscale.Config{
		Replica:     serve.Config{Model: mugi.Llama2_7B, Design: mugi.NewMugi(256), Mesh: mugi.NewMesh(4, 4), Simulate: u.tr.stepFunc()},
		MaxReplicas: 4,
	}
	tc := serve.TraceConfig{Kind: serve.Diurnal, Rate: 0.02, Requests: b.requests, Seed: unitSeed(b.seed, k), Period: 86400}
	var st autoscale.StaticReport
	var dyn autoscale.Report
	if err := u.timed(func() error {
		if u.tr == nil {
			c, err := autoscale.Compare(cfg, tc)
			st, dyn = c.Static, c.Dynamic
			return err
		}
		// Traced, the two sides Compare runs are timed one by one.
		var err error
		id := u.tr.begin("autoscale.static", "autoscale.RunStatic")
		st, err = autoscale.RunStatic(cfg, tc)
		u.tr.end(id)
		if err != nil {
			return err
		}
		id = u.tr.begin("autoscale.dynamic", "autoscale.Run")
		dyn, err = autoscale.Run(cfg, tc)
		u.tr.end(id)
		return err
	}); err != nil {
		return err
	}
	sf := st.Fleet.Fleet
	u.items = float64(sf.Completed + sf.Shed + sf.Orphaned + dyn.Completed + dyn.Shed)
	u.report.WriteString(autoscale.Comparison{Static: st, Dynamic: dyn}.String())
	u.counts["serve.steps"] = float64(sf.PrefillSteps + sf.DecodeSteps + dyn.PrefillSteps + dyn.DecodeSteps)
	u.counts["serve.mean_batch"] = dyn.MeanBatch
	u.counts["serve.kv_deferred"] = float64(sf.KVQueuedRequests)
	if err := checkReport(sf); err != nil {
		return fmt.Errorf("static fleet: %w", err)
	}
	if dyn.Completed+dyn.Shed != dyn.Requests {
		return fmt.Errorf("controller: %d completed + %d shed != %d requests", dyn.Completed, dyn.Shed, dyn.Requests)
	}
	if err := checkFinite("static", reflect.ValueOf(st)); err != nil {
		return err
	}
	return checkFinite("dynamic", reflect.ValueOf(dyn))
}

func (b *autoscaleDay) finish() (map[string]float64, error) { return nil, nil }

// ---- plan_sweep ----

// planSweep plans a 4-design x 3-mesh x {1,2,4}-replica fleet grid, one
// fleet.Plan per design, then scores the MinuteServe leaderboard and
// verifies its signed artifact against the committed one. Every cell of
// one Plan probes with the same trace, so its cells' probe counts move
// together with the seed; a probe seed per design makes a round four
// independent draws, which steadies the run's median.
type planSweep struct {
	seed   int64
	grids  [][]fleet.Cell // one per design
	golden []byte
}

// minuteServeGolden is the committed leaderboard artifact, read from the
// repository root the benchmark runs in.
const minuteServeGolden = "MINUTESERVE.json"

func newPlanSweep(seed int64, scale float64) (bench, error) {
	golden, err := os.ReadFile(minuteServeGolden)
	if err != nil {
		return nil, fmt.Errorf("read the committed leaderboard: %w", err)
	}
	designs := []mugi.Design{mugi.NewMugi(256), mugi.NewCarat(128), mugi.NewSystolicArray(16, true), mugi.NewTensorCore()}
	meshes := []mugi.Mesh{mugi.SingleNode, mugi.NewMesh(2, 2), mugi.NewMesh(4, 4)}
	replicas := []int{1, 2, 4}
	b := &planSweep{seed: seed, golden: golden}
	left := scaled(len(designs)*len(meshes)*len(replicas), scale, 1)
	for _, d := range designs {
		cells := fleet.Grid([]mugi.Design{d}, meshes, replicas)
		if left < len(cells) {
			cells = cells[:left]
		}
		if len(cells) > 0 {
			b.grids = append(b.grids, cells)
		}
		left -= len(cells)
	}
	return b, nil
}

func (b *planSweep) unit(k int, u *unitCtx) error {
	seeds := rand.New(rand.NewSource(unitSeed(b.seed, k)))
	specs := make([]fleet.PlanSpec, len(b.grids))
	for i, cells := range b.grids {
		specs[i] = fleet.PlanSpec{
			Base:   serve.Config{Model: mugi.Llama2_7B, Simulate: u.tr.stepFunc()},
			Cells:  cells,
			Policy: fleet.JSQ,
			Trace:  serve.TraceConfig{Kind: serve.Poisson, Requests: 32, Seed: seeds.Int63()},
			SLO:    fleet.SLO{TTFTP99: 60, LatencyP99: 300},
			Iters:  5,
		}
	}
	var results []fleet.CellResult
	var board mugi.MinuteServeBoard
	var encoded []byte
	if err := u.timed(func() (err error) {
		for _, spec := range specs {
			id := u.tr.begin("capacity", "fleet.Plan")
			results = append(results, fleet.Plan(spec)...)
			u.tr.end(id)
		}
		id := u.tr.begin("minuteserve", "minuteserve.Leaderboard")
		board, err = mugi.Leaderboard(mugi.MinuteServeEntries())
		u.tr.end(id)
		if err != nil {
			return err
		}
		id = u.tr.begin("minuteserve.verify", "minuteserve.Verify")
		encoded = board.Encode()
		err = mugi.VerifyReport(encoded)
		u.tr.end(id)
		return err
	}); err != nil {
		return err
	}
	u.items = float64(len(results) + len(board.Entries))
	probes := 0
	for _, r := range results {
		if r.Err != nil {
			return fmt.Errorf("cell %s %s x%d: %w", r.Design, r.Mesh, r.Replicas, r.Err)
		}
		probes += r.Probes
		fmt.Fprintf(&u.report, "cell %s %s x%d capacity %v probes %d perf/$ %v perf/W %v\n%s%s\n",
			r.Design, r.Mesh, r.Replicas, r.Capacity, r.Probes, r.PerfPerDollar, r.PerfPerWatt, r.At, r.TCO)
		if r.Capacity > 0 {
			if err := checkReport(r.At.Fleet); err != nil {
				return fmt.Errorf("cell %s %s x%d: %w", r.Design, r.Mesh, r.Replicas, err)
			}
		}
		if err := checkFinite("cell", reflect.ValueOf(r)); err != nil {
			return err
		}
	}
	u.report.Write(encoded)
	u.counts["capacity.probes"] = float64(probes)
	u.counts["capacity.probes_per_cell"] = float64(probes) / float64(len(results))
	if !bytes.Equal(encoded, b.golden) {
		return fmt.Errorf("leaderboard differs from the committed %s", minuteServeGolden)
	}
	return nil
}

func (b *planSweep) finish() (map[string]float64, error) { return nil, nil }

// ---- dse_points ----

// dsePoints pushes sequences of distinct design-space points through the
// runner's cache in chunks, with a working set larger than the cache: the
// simulator's miss and eviction path, with the scheduler bypassed.
type dsePoints struct {
	seed          int64
	chunk, chunks int
	space         *designSpace
}

func newDSEPoints(seed int64, scale float64) (bench, error) {
	return &dsePoints{seed: seed, chunk: scaled(dseChunk, scale, 64), chunks: dseChunks, space: theDesignSpace()}, nil
}

// dseCheckStride samples one point in this many for the cache check.
const dseCheckStride = 64

func (b *dsePoints) unit(k int, u *unitCtx) error {
	g := b.space.newGen(unitSeed(b.seed, k))
	for c := 0; c < b.chunks; c++ {
		pts := g.chunk(b.chunk)
		_ = u.timed(func() error {
			id := u.tr.begin("runner", "runner.Prefetch")
			runner.Prefetch(pts)
			u.tr.end(id)
			return nil
		})
		u.items += float64(len(pts))
		// The cached result of a sampled point must equal a direct
		// simulation, including after evictions.
		if err := u.untimed(func() error {
			for i := 0; i < len(pts); i += dseCheckStride {
				got := runner.Simulate(pts[i].Params, pts[i].Workload)
				want := sim.Simulate(pts[i].Params, pts[i].Workload)
				if !reflect.DeepEqual(got, want) {
					return fmt.Errorf("chunk %d point %d: cached result differs from sim.Simulate", c, i)
				}
				if err := checkFinite("result", reflect.ValueOf(want)); err != nil {
					return err
				}
				fmt.Fprintf(&u.report, "%s %s %v %v %v %v %v\n", want.Design.Name, want.Mesh,
					want.TotalCycles, want.Seconds, want.DynamicEnergy, want.DRAMBytes, want.Utilization)
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

func (b *dsePoints) finish() (map[string]float64, error) { return nil, nil }

// designSpace is the space dse_points samples: 7 designs x 4 meshes x 3
// DVFS points of simulator parameters, crossed with 4 models x
// {prefill, decode} x batch 1-32 x 64 context lengths (decode 64-4096,
// prefill 32-2048) of workloads, about 1.4M points. Both halves are built
// once, so drawing points allocates nothing and the timed windows carry
// only the runner's own allocation and collection work.
type designSpace struct {
	params    []sim.Params
	workloads []mugi.Workload
}

var theDesignSpace = sync.OnceValue(func() *designSpace {
	s := &designSpace{}
	designs := []mugi.Design{
		mugi.NewMugi(256), mugi.NewMugi(128), mugi.NewMugiL(256), mugi.NewCarat(128),
		mugi.NewSystolicArray(16, true), mugi.NewSIMDArray(16, true), mugi.NewTensorCore(),
	}
	for _, d := range designs {
		for _, m := range []mugi.Mesh{mugi.SingleNode, mugi.NewMesh(2, 2), mugi.NewMesh(4, 4), mugi.NewMesh(8, 8)} {
			for _, p := range mugi.DVFSLadder() {
				s.params = append(s.params, sim.Params{Design: d, Mesh: m, DVFS: p})
			}
		}
	}
	for _, m := range []mugi.ModelConfig{mugi.Llama2_7B, mugi.Llama2_13B, mugi.Llama2_70B, mugi.Llama2_70B_GQA} {
		for batch := 1; batch <= 32; batch++ {
			for i := 1; i <= 64; i++ {
				s.workloads = append(s.workloads, m.DecodeOps(batch, 64*i), m.PrefillOps(batch, 32*i))
			}
		}
	}
	return s
})

// point returns the design-space point with the given index.
func (s *designSpace) point(i uint32) runner.Point {
	return runner.Point{Params: s.params[i%uint32(len(s.params))], Workload: s.workloads[i/uint32(len(s.params))]}
}

// draw returns the index of a uniformly drawn point.
func (s *designSpace) draw(rng *rand.Rand) uint32 {
	return uint32(rng.Intn(len(s.params) * len(s.workloads)))
}

// pointGen draws one chunk sequence: each point is, with probability 1/4,
// a revisit of a point drawn earlier in the sequence, and otherwise a
// fresh uniform draw.
type pointGen struct {
	space *designSpace
	rng   *rand.Rand
	seen  []uint32
	buf   []runner.Point
}

func (s *designSpace) newGen(seed int64) *pointGen {
	return &pointGen{space: s, rng: rand.New(rand.NewSource(seed))}
}

// chunk draws the next n points into a buffer the next call reuses.
func (g *pointGen) chunk(n int) []runner.Point {
	if cap(g.buf) < n {
		g.buf = make([]runner.Point, n)
	}
	pts := g.buf[:n]
	for i := range pts {
		var p uint32
		if len(g.seen) > 0 && g.rng.Intn(4) == 0 {
			p = g.seen[g.rng.Intn(len(g.seen))]
		} else {
			p = g.space.draw(g.rng)
			g.seen = append(g.seen, p)
		}
		pts[i] = g.space.point(p)
	}
	return pts
}

// ---- vlp_decode ----

// decoderConfig is the functional decoder vlp_decode runs: GQA with 8
// heads over 2 KV heads, RoPE, SiLU, INT4 weights and KV cache.
var decoderConfig = infer.Config{
	Layers: 4, Heads: 8, KVHeads: 2, Dim: 128, FFN: 256, Vocab: 256,
	MaxSeq: vlpTokens, RoPE: true, Activation: mugi.SiLU,
}

// minTokenMatch is the least greedy agreement with the exact stack a run
// accepts (about 0.89 is typical).
const minTokenMatch = 0.85

// vlpDecode greedily decodes sequences on the full VLP stack: VLP INT4
// GEMMs, VLP softmax and activation, the KVQ cache and GQA.
type vlpDecode struct {
	seed   int64
	tokens int
	eng    *infer.Engine
	ops    infer.Ops
	// first is the token sequence fed in the first timed unit, which
	// finish replays on the exact stack.
	first []int
}

func newVLPDecode(seed int64, scale float64) (bench, error) {
	cfg := decoderConfig
	cfg.Seed = seed
	eng, err := infer.New(cfg)
	if err != nil {
		return nil, err
	}
	return &vlpDecode{seed: seed, tokens: scaled(vlpTokens, scale, 128), eng: eng, ops: infer.VLPOps(cfg.Activation)}, nil
}

func (b *vlpDecode) unit(k int, u *unitCtx) error {
	rng := rand.New(rand.NewSource(unitSeed(b.seed, k)))
	prompt := make([]int, vlpPrompt)
	for i := range prompt {
		prompt[i] = rng.Intn(decoderConfig.Vocab)
	}
	b.eng.Reset()
	fed := make([]int, 0, b.tokens)
	if err := u.timed(func() error {
		tok := prompt[0]
		for i := 0; i < b.tokens; i++ {
			var logits []float64
			var err error
			if u.tr != nil {
				a := u.tr.call(callStep)
				start := time.Now()
				logits, err = b.eng.Step(tok, b.ops)
				a.add(time.Since(start))
			} else {
				logits, err = b.eng.Step(tok, b.ops)
			}
			if err != nil {
				return err
			}
			fed = append(fed, tok)
			if tok = argmax(logits); tok < 0 {
				return fmt.Errorf("token %d: logits not finite", i)
			}
			if i+1 < len(prompt) {
				tok = prompt[i+1]
			}
		}
		return nil
	}); err != nil {
		return err
	}
	u.items = float64(len(fed))
	fmt.Fprintln(&u.report, fed)
	if k == 0 {
		b.first = fed
	}
	return nil
}

// finish replays the first unit's tokens on the exact stack and measures
// how often its greedy choice agrees with the VLP stack's.
func (b *vlpDecode) finish() (map[string]float64, error) {
	if len(b.first) == 0 {
		return nil, fmt.Errorf("no timed unit decoded")
	}
	cfg := decoderConfig
	cfg.Seed = b.seed
	exact, err := infer.New(cfg)
	if err != nil {
		return nil, err
	}
	ops := infer.ExactOps(cfg.Activation)
	match, n := 0, 0
	for i, tok := range b.first {
		logits, err := exact.Step(tok, ops)
		if err != nil {
			return nil, err
		}
		if i+1 < vlpPrompt || i+1 >= len(b.first) {
			continue
		}
		n++
		if argmax(logits) == b.first[i+1] {
			match++
		}
	}
	ratio := float64(match) / float64(n)
	m := map[string]float64{"infer.token_match": ratio}
	if ratio < minTokenMatch {
		return m, fmt.Errorf("VLP greedy tokens agree with the exact stack on %d/%d steps, below %v", match, n, minTokenMatch)
	}
	return m, nil
}

// argmax returns the index of the largest logit, or -1 if any logit is
// NaN or infinite.
func argmax(xs []float64) int {
	best := -1
	for i, x := range xs {
		if !finite(x) {
			return -1
		}
		if best < 0 || x > xs[best] {
			best = i
		}
	}
	return best
}
