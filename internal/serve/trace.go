// Package serve is the request-level serving simulator: it drives the
// per-pass costs of internal/sim through a continuous-batching scheduler
// fed by synthetic arrival traces, turning the repository's isolated
// single-pass numbers into the metrics a production deployment is judged
// by — offered vs. sustained throughput, time-to-first-token,
// time-per-output-token, tail request latency, and joules per request.
//
// Everything is deterministic: traces are drawn from a seeded generator,
// the scheduler is a pure event loop over pure simulator results, and
// each run prices a step shape once (StepCosts) — so an identical (seed,
// trace, config) tuple renders a byte-identical Report at any runner
// parallelism, the same guarantee the experiment registry makes.
package serve

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"mugi/internal/overload"
)

// TraceKind selects the synthetic arrival process.
type TraceKind int

const (
	// Poisson is a homogeneous Poisson process: independent exponential
	// inter-arrival times at the configured mean rate.
	Poisson TraceKind = iota
	// Bursty is a two-state Markov-modulated Poisson process: ON phases
	// arrive at BurstFactor times the mean rate, OFF phases at a trickle,
	// with phase lengths chosen so the long-run rate matches Rate.
	Bursty
	// Diurnal is a non-homogeneous Poisson process whose instantaneous
	// rate follows a sinusoid (period Period, relative amplitude Swing)
	// around the mean rate — a compressed day/night load curve.
	Diurnal
	// Flashcrowd alternates Poisson arrivals at the baseline rate with
	// seeded step surges at SurgeFactor times the rate: normal phases
	// last SurgePeriod on average, surge phases SurgeSpan. The overload
	// stressor for admission control and brownout.
	Flashcrowd
	// Retrystorm is a single deterministic step surge — normal rate
	// until SurgePeriod seconds, SurgeFactor times the rate for the next
	// SurgeSpan seconds, then normal again. Paired with
	// Config.ClientRetry, the pulse seeds the metastable-failure
	// feedback loop: sheds re-arrive as client retries that keep the
	// queue saturated long after the pulse has passed.
	Retrystorm
)

// String names the trace kind for renderings and CLI flags.
func (k TraceKind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Bursty:
		return "bursty"
	case Diurnal:
		return "diurnal"
	case Flashcrowd:
		return "flashcrowd"
	case Retrystorm:
		return "retrystorm"
	default:
		return fmt.Sprintf("trace(%d)", int(k))
	}
}

// ParseTraceKind maps a CLI spelling to its TraceKind.
func ParseTraceKind(s string) (TraceKind, error) {
	switch strings.ToLower(s) {
	case "poisson":
		return Poisson, nil
	case "bursty":
		return Bursty, nil
	case "diurnal":
		return Diurnal, nil
	case "flashcrowd":
		return Flashcrowd, nil
	case "retrystorm":
		return Retrystorm, nil
	}
	return 0, fmt.Errorf("serve: unknown trace kind %q (want poisson|bursty|diurnal|flashcrowd|retrystorm)", s)
}

// TraceKinds lists every arrival process.
func TraceKinds() []TraceKind {
	return []TraceKind{Poisson, Bursty, Diurnal, Flashcrowd, Retrystorm}
}

// LengthProfile draws prompt and output token counts for one request. In
// the style of internal/dist's Gaussian activation profiles, lengths are
// parameterized log-normals (token counts are positive and heavy-tailed),
// clamped to [1, Max*].
type LengthProfile struct {
	// Name labels the profile in renderings ("chat", "rag").
	Name string
	// PromptMeanLog/PromptStdLog are the log-space mean and deviation of
	// the prompt length.
	PromptMeanLog, PromptStdLog float64
	// OutputMeanLog/OutputStdLog are the log-space mean and deviation of
	// the output length.
	OutputMeanLog, OutputStdLog float64
	// MaxPrompt and MaxOutput clamp the draws (typically the model's
	// context budget split between prompt and generation).
	MaxPrompt, MaxOutput int
}

// ChatLengths models interactive chat traffic: short prompts (median ~256
// tokens), medium generations (median ~64 tokens).
func ChatLengths() LengthProfile {
	return LengthProfile{
		Name:          "chat",
		PromptMeanLog: math.Log(256), PromptStdLog: 0.7,
		OutputMeanLog: math.Log(64), OutputStdLog: 0.6,
		MaxPrompt: 2048, MaxOutput: 512,
	}
}

// ParseLengthProfile maps a CLI spelling to its built-in length profile,
// the LengthProfile counterpart of ParseTraceKind.
func ParseLengthProfile(s string) (LengthProfile, error) {
	switch strings.ToLower(s) {
	case "chat":
		return ChatLengths(), nil
	case "rag":
		return RAGLengths(), nil
	}
	return LengthProfile{}, fmt.Errorf("serve: unknown length profile %q (want chat|rag)", s)
}

// RAGLengths models retrieval-augmented traffic: long stuffed prompts
// (median ~1024 tokens), short grounded answers (median ~48 tokens).
func RAGLengths() LengthProfile {
	return LengthProfile{
		Name:          "rag",
		PromptMeanLog: math.Log(1024), PromptStdLog: 0.5,
		OutputMeanLog: math.Log(48), OutputStdLog: 0.5,
		MaxPrompt: 3584, MaxOutput: 256,
	}
}

// draw samples one (prompt, output) pair.
func (p LengthProfile) draw(rng *rand.Rand) (prompt, output int) {
	prompt = clampLen(math.Exp(p.PromptMeanLog+p.PromptStdLog*rng.NormFloat64()), p.MaxPrompt)
	output = clampLen(math.Exp(p.OutputMeanLog+p.OutputStdLog*rng.NormFloat64()), p.MaxOutput)
	return prompt, output
}

// validate rejects a NaN or infinite log-space mean or deviation, which
// would clamp every draw to one token.
func (p LengthProfile) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PromptMeanLog", p.PromptMeanLog}, {"PromptStdLog", p.PromptStdLog},
		{"OutputMeanLog", p.OutputMeanLog}, {"OutputStdLog", p.OutputStdLog},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("serve: length profile %q %s %g must be finite", p.Name, f.name, f.v)
		}
	}
	return nil
}

func clampLen(x float64, max int) int {
	n := int(math.Round(x))
	if n < 1 {
		n = 1
	}
	if max > 0 && n > max {
		n = max
	}
	return n
}

// TraceConfig parameterizes a synthetic trace.
type TraceConfig struct {
	Kind TraceKind
	// Rate is the long-run mean arrival rate in requests/second, at
	// least 1e-9. Scaled by the kind's BurstFactor, 1+Swing or
	// SurgeFactor, it may peak at 1e9.
	Rate float64
	// Requests is the number of requests to draw.
	Requests int
	// Seed drives every random draw; identical configs are byte-identical.
	Seed int64
	// Lengths is the request length profile (zero value: ChatLengths).
	Lengths LengthProfile

	// BurstFactor is the ON-phase rate multiplier for Bursty traces
	// (default 4).
	BurstFactor float64
	// Period is the sinusoid period in seconds for Diurnal traces
	// (default 60; at least 1e-3 mean gaps 1/Rate).
	Period float64
	// Swing is the relative sinusoid amplitude in [0,1) for Diurnal
	// traces (default 0.8).
	Swing float64

	// SurgeFactor is the surge-phase rate multiplier for Flashcrowd and
	// Retrystorm traces (default 4; must exceed 1, and be at most 1e3 for
	// Retrystorm).
	SurgeFactor float64
	// SurgeSpan is the surge length in seconds: the mean surge-phase
	// length for Flashcrowd, the exact pulse width for Retrystorm
	// (default 120). A Flashcrowd phase spans at least 1e-3 mean gaps.
	SurgeSpan float64
	// SurgePeriod is the calm length in seconds: the mean normal-phase
	// length for Flashcrowd, the exact pulse start for Retrystorm
	// (default 600).
	SurgePeriod float64

	// Tenants is the per-tenant traffic mix: each request draws its
	// priority class from these shares (an independent seeded
	// generator, so arrivals and lengths are unchanged by tagging).
	// Empty means untagged traffic — every request is overload.Standard
	// and reports omit the per-class sections.
	Tenants []TenantSpec
}

// TenantSpec is one entry of a trace's tenant mix.
type TenantSpec struct {
	// Class is the priority class this tenant's requests carry.
	Class overload.Class
	// Share is the tenant's relative traffic share (shares are
	// normalized, so any positive weights work).
	Share float64
}

// ParseTenants parses a CLI tenant mix like
// "interactive:0.25,standard:0.25,best-effort:0.5". Each share must be a
// positive finite number with nothing after it.
func ParseTenants(s string) ([]TenantSpec, error) {
	if s == "" {
		return nil, nil
	}
	var tenants []TenantSpec
	for _, part := range strings.Split(s, ",") {
		name, share, ok := strings.Cut(strings.TrimSpace(part), ":")
		if !ok {
			return nil, fmt.Errorf("serve: tenant %q must be class:share", part)
		}
		c, err := overload.ParseClass(name)
		if err != nil {
			return nil, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(share), 64)
		if err != nil || !finiteAbove(w, 0) {
			return nil, fmt.Errorf("serve: tenant %q share must be a positive finite number", part)
		}
		tenants = append(tenants, TenantSpec{Class: c, Share: w})
	}
	return tenants, nil
}

// TenantString renders a tenant mix in the ParseTenants syntax, the
// deterministic identifier reports carry.
func TenantString(tenants []TenantSpec) string {
	if len(tenants) == 0 {
		return ""
	}
	total := 0.0
	for _, t := range tenants {
		total += t.Share
	}
	parts := make([]string, len(tenants))
	for i, t := range tenants {
		parts[i] = fmt.Sprintf("%s:%.2f", t.Class, t.Share/total)
	}
	return strings.Join(parts, ",")
}

// Request is one serving request of a trace.
type Request struct {
	// ID is the arrival index.
	ID int
	// Arrival is the arrival time in seconds from trace start. A failover
	// re-dispatch keeps the original latency clock by leaving latency
	// accounting keyed to the request's first arrival; Arrival itself is
	// rewritten to the re-delivery time when a router re-dispatches.
	Arrival float64
	// Prompt and Output are the token counts.
	Prompt, Output int
	// Retries counts prior dispatch attempts that failed (crash orphaning
	// or transient dispatch errors). Trace generators always emit 0; the
	// scheduler and the fleet router increment it, and a RetryPolicy
	// bounds it.
	Retries int
	// Class is the tenant/priority class. The zero value is
	// overload.Standard, so untagged traces keep their old meaning. The
	// class travels with the request through every redispatch — a
	// failover hand-off never changes who is paying for the work.
	Class overload.Class
}

// Trace is a finite, arrival-ordered request schedule.
type Trace struct {
	Kind     TraceKind
	Rate     float64
	Seed     int64
	Lengths  string
	Tenants  string
	Requests []Request
}

// TraceInfo identifies a trace in reports without carrying its requests —
// the piece of a Trace a million-request streaming run can afford to
// retain.
type TraceInfo struct {
	Kind    TraceKind
	Rate    float64
	Seed    int64
	Lengths string
	// Tenants is the TenantString of the mix; "" for untagged traces.
	Tenants string
}

// Info summarizes the trace for reports.
func (t Trace) Info() TraceInfo {
	return TraceInfo{Kind: t.Kind, Rate: t.Rate, Seed: t.Seed, Lengths: t.Lengths, Tenants: t.Tenants}
}

// Stream yields a finite request schedule in arrival order, one request
// at a time, so a scheduler run never has to materialize the full
// []Request — the interface behind both materialized traces
// (Trace.Stream) and the lazy seeded generator (NewStream). A Stream is
// one-shot: Next returns each request exactly once.
type Stream interface {
	// Info identifies the trace for reports.
	Info() TraceInfo
	// Len is the total number of requests the stream will yield.
	Len() int
	// Next returns the next request in arrival order, or false when the
	// stream is exhausted.
	Next() (Request, bool)
}

// Stream returns a one-shot Stream view over the materialized trace.
func (t Trace) Stream() Stream { return &sliceStream{t: t} }

type sliceStream struct {
	t Trace
	i int
}

func (s *sliceStream) Info() TraceInfo { return s.t.Info() }
func (s *sliceStream) Len() int        { return len(s.t.Requests) }

func (s *sliceStream) Next() (Request, bool) {
	if s.i >= len(s.t.Requests) {
		return Request{}, false
	}
	r := s.t.Requests[s.i]
	s.i++
	return r, true
}

// lengthSeedMix decorrelates the length generator from the arrival
// generator so both can draw lazily, one request at a time, from
// independent deterministic sources.
const lengthSeedMix = 0x5bd1e995

// tenantSeedMix decorrelates the tenant-class generator the same way;
// tagging a trace with tenants changes no arrival time and no length.
const tenantSeedMix = 0x9e3779b9

// A trace draws from up to three seeded sources, indexed by these: each
// is seeded with the trace seed XOR its sourceMixes entry.
const (
	arrivalSource = iota
	lengthSource
	tenantSource // drawn only when the trace has Tenants
)

var sourceMixes = [...]int64{arrivalSource: 0, lengthSource: lengthSeedMix, tenantSource: tenantSeedMix}

// genStream draws requests lazily from the seeded generators — the
// Stream behind NewStream and Draws.Stream. Its own memory is O(1)
// regardless of the configured request count, so a million-request
// trace never materializes.
type genStream struct {
	cfg  TraceConfig
	arr  *rand.Rand // arrival process draws
	lens *rand.Rand // length profile draws
	cls  *rand.Rand // tenant class draws (only when Tenants is set)
	next int        // next request ID
	t    float64    // arrival clock, seconds

	// Bursty (MMPP) and Flashcrowd phase state.
	on              bool
	phaseLeft       float64
	onMean, offMean float64

	// shares is the tenant mix as cumulative normalized shares.
	shares []float64
}

// NewStream validates the config and returns the lazy seeded request
// generator. NewTrace is exactly this stream drained into a slice, so a
// streamed run and a materialized run see identical requests.
func NewStream(cfg TraceConfig) (Stream, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	return newGenStream(cfg, func(i int) rand.Source { return rand.NewSource(cfg.Seed ^ sourceMixes[i]) }), nil
}

// Validate reports whether NewStream and Draws.Stream accept the
// config, without drawing from it.
func (cfg TraceConfig) Validate() error {
	_, err := cfg.resolve()
	return err
}

// The outer bounds of the trace knobs. Inside them every gap, phase and
// clock the generator computes stays finite, and one Next makes a
// bounded number of draws on average. Outside them a peak rate or a gap
// 1/Rate overflows to +Inf, the diurnal sinusoid's argument does,
// thinning almost never accepts, or each draw advances the clock by a
// negligible phase, and Next may never return.
const (
	// minTraceRate is the lowest Rate, in requests/second.
	minTraceRate = 1e-9
	// maxTracePeak is the highest peak arrival rate, in requests/second:
	// Rate itself, or Rate scaled by BurstFactor, 1+Swing or SurgeFactor.
	maxTracePeak = 1e9
	// minTimescaleGaps is the shortest diurnal Period and flashcrowd mean
	// phase (SurgeSpan, SurgePeriod), in mean gaps 1/Rate. Each phase
	// switch costs a flashcrowd one draw, so this bounds its draws per
	// arrival.
	minTimescaleGaps = 1e-3
	// maxThinning is the highest retrystorm SurgeFactor: thinning against
	// the surge rate draws SurgeFactor candidates per calm arrival on
	// average.
	maxThinning = 1e3
)

// resolve fills in the config's defaults and validates it.
func (cfg TraceConfig) resolve() (TraceConfig, error) {
	if !finiteAbove(cfg.Rate, 0) {
		return cfg, fmt.Errorf("serve: trace Rate %g must be positive and finite", cfg.Rate)
	}
	if cfg.Rate < minTraceRate {
		return cfg, fmt.Errorf("serve: trace Rate %g must be at least %g req/s", cfg.Rate, minTraceRate)
	}
	if cfg.Requests < 1 {
		return cfg, fmt.Errorf("serve: trace needs at least one request, got %d", cfg.Requests)
	}
	if cfg.Lengths == (LengthProfile{}) {
		cfg.Lengths = ChatLengths()
	}
	if err := cfg.Lengths.validate(); err != nil {
		return cfg, err
	}
	// Kind-specific knobs are defaulted and validated only for their own
	// kind, so a shared config struct carrying another kind's settings
	// stays valid. peak is the process's highest arrival rate; knob and
	// factor name the setting that lifts Rate to it.
	peak, knob, factor := cfg.Rate, "", 0.0
	switch cfg.Kind {
	case Poisson:
	case Bursty:
		if cfg.BurstFactor == 0 {
			cfg.BurstFactor = 4
		}
		if !finiteAbove(cfg.BurstFactor, 1) {
			return cfg, fmt.Errorf("serve: trace BurstFactor %g must be finite and exceed 1", cfg.BurstFactor)
		}
		peak, knob, factor = cfg.BurstFactor*cfg.Rate, "BurstFactor", cfg.BurstFactor
	case Diurnal:
		if cfg.Period == 0 {
			cfg.Period = 60
		}
		if !finiteAbove(cfg.Period, 0) {
			return cfg, fmt.Errorf("serve: trace Period %g must be positive and finite", cfg.Period)
		}
		if err := spansGaps("Period", cfg.Period, cfg.Rate); err != nil {
			return cfg, err
		}
		if cfg.Swing == 0 {
			cfg.Swing = 0.8
		}
		if !(cfg.Swing >= 0 && cfg.Swing < 1) {
			return cfg, fmt.Errorf("serve: trace Swing %g must be in [0,1)", cfg.Swing)
		}
		peak, knob, factor = cfg.Rate*(1+cfg.Swing), "Swing", cfg.Swing
	case Flashcrowd, Retrystorm:
		if cfg.SurgeFactor == 0 {
			cfg.SurgeFactor = 4
		}
		if !finiteAbove(cfg.SurgeFactor, 1) {
			return cfg, fmt.Errorf("serve: trace SurgeFactor %g must be finite and exceed 1", cfg.SurgeFactor)
		}
		if cfg.SurgeSpan == 0 {
			cfg.SurgeSpan = 120
		}
		if !finiteAbove(cfg.SurgeSpan, 0) {
			return cfg, fmt.Errorf("serve: trace SurgeSpan %g must be positive and finite", cfg.SurgeSpan)
		}
		if cfg.SurgePeriod == 0 {
			cfg.SurgePeriod = 600
		}
		if !finiteAbove(cfg.SurgePeriod, 0) {
			return cfg, fmt.Errorf("serve: trace SurgePeriod %g must be positive and finite", cfg.SurgePeriod)
		}
		if cfg.Kind == Flashcrowd {
			if err := spansGaps("SurgeSpan", cfg.SurgeSpan, cfg.Rate); err != nil {
				return cfg, err
			}
			if err := spansGaps("SurgePeriod", cfg.SurgePeriod, cfg.Rate); err != nil {
				return cfg, err
			}
		} else if cfg.SurgeFactor > maxThinning {
			return cfg, fmt.Errorf("serve: retrystorm trace SurgeFactor %g must be at most %g", cfg.SurgeFactor, maxThinning)
		}
		peak, knob, factor = cfg.SurgeFactor*cfg.Rate, "SurgeFactor", cfg.SurgeFactor
	default:
		return cfg, fmt.Errorf("serve: unknown trace kind %v", cfg.Kind)
	}
	if peak > maxTracePeak {
		if knob == "" {
			return cfg, fmt.Errorf("serve: trace Rate %g must be at most %g req/s", cfg.Rate, maxTracePeak)
		}
		return cfg, fmt.Errorf("serve: trace Rate %g with %s %g peaks at %g req/s, above %g", cfg.Rate, knob, factor, peak, maxTracePeak)
	}
	for _, t := range cfg.Tenants {
		if !finiteAbove(t.Share, 0) {
			return cfg, fmt.Errorf("serve: tenant %s Share %g must be positive and finite", t.Class, t.Share)
		}
	}
	return cfg, nil
}

// spansGaps checks that a time scale of a trace at rate req/s, in
// seconds, spans at least minTimescaleGaps mean gaps.
func spansGaps(knob string, seconds, rate float64) error {
	if seconds*rate < minTimescaleGaps {
		return fmt.Errorf("serve: trace %s %g s must span at least %g mean gaps of 1/Rate = %g s", knob, seconds, minTimescaleGaps, 1/rate)
	}
	return nil
}

// newGenStream starts the generator of a resolved config, drawing from
// the sources that source returns by index (arrivalSource and friends).
func newGenStream(cfg TraceConfig, source func(i int) rand.Source) *genStream {
	g := &genStream{
		cfg:  cfg,
		arr:  rand.New(source(arrivalSource)),
		lens: rand.New(source(lengthSource)),
	}
	if len(cfg.Tenants) > 0 {
		g.cls = rand.New(source(tenantSource))
		total := 0.0
		for _, t := range cfg.Tenants {
			total += t.Share
		}
		acc := 0.0
		for _, t := range cfg.Tenants {
			acc += t.Share / total
			g.shares = append(g.shares, acc)
		}
	}
	if cfg.Kind == Flashcrowd {
		// Start calm; phases alternate exp(SurgePeriod) calm with
		// exp(SurgeSpan) surge, arrivals Poisson within each phase.
		g.onMean, g.offMean = cfg.SurgeSpan, cfg.SurgePeriod
		g.phaseLeft = g.arr.ExpFloat64() * g.offMean
	}
	if cfg.Kind == Bursty {
		// Two-state MMPP. ON arrives at BurstFactor*Rate, OFF at
		// Rate/10; the ON duty cycle p solves
		// p*BF*R + (1-p)*R/10 = R, and a cycle spans ~40 mean
		// inter-arrivals so several bursts fit any realistic trace.
		p := (1 - 0.1) / (cfg.BurstFactor - 0.1)
		cycle := 40 / cfg.Rate
		g.onMean, g.offMean = p*cycle, (1-p)*cycle
		g.on = true
		g.phaseLeft = g.arr.ExpFloat64() * g.onMean
	}
	return g
}

// Draws records a trace's random draws once and replays them to every
// later stream of the same seed, for callers that draw one seed's trace
// many times at different rates, as a capacity search's probes do.
// Every request a stream yields is a fixed function of its sources'
// outputs, at any rate and for every kind, so a stream from Draws.Stream
// yields exactly the requests NewStream's would, while seeding each
// math/rand source once per seed instead of once per stream.
//
// A Draws records each source's outputs the first time a stream needs
// them, so it holds as many draws as the longest stream of the current
// seed has taken: a one-shot stream is cheaper from NewStream, whose
// memory stays O(1). A stream of another seed starts a fresh recording.
// The zero value is ready to use. A Draws and its streams are not safe
// for concurrent use.
type Draws struct {
	seed int64
	recs [len(sourceMixes)]*recording // by source index; nil until a stream uses it
}

// Stream validates the config like NewStream and returns a stream of
// the same requests, replaying the recorded draws of cfg's seed.
func (d *Draws) Stream(cfg TraceConfig) (Stream, error) {
	cfg, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Seed != d.seed {
		*d = Draws{seed: cfg.Seed}
	}
	return newGenStream(cfg, d.replay), nil
}

// replay returns a source that reads source i's recording from its
// start, seeding the source if no stream of this seed has used it yet.
func (d *Draws) replay(i int) rand.Source {
	if d.recs[i] == nil {
		d.recs[i] = &recording{src: rand.NewSource(d.seed ^ sourceMixes[i]).(rand.Source64)}
	}
	return &replay{rec: d.recs[i]}
}

// recording is the output sequence of one seeded source, extended from
// the source whenever a replay reads past its end.
type recording struct {
	src rand.Source64
	out []uint64
}

// replay is a rand.Source64 that reads a recording from its start.
type replay struct {
	rec *recording
	i   int
}

// Uint64 returns the recording's next output, drawing it first if no
// replay has reached this far.
func (r *replay) Uint64() uint64 {
	rec := r.rec
	if r.i == len(rec.out) {
		rec.out = append(rec.out, rec.src.Uint64())
	}
	x := rec.out[r.i]
	r.i++
	return x
}

// Int63 is what math/rand's own source returns for the same position:
// its next Uint64 masked to 63 bits. rand.Rand draws every value a trace
// uses through Int63.
func (r *replay) Int63() int64 { return int64(r.Uint64() & (1<<63 - 1)) }

// Seed exists because rand.Source requires it. No code calls it: a
// replay's draws are fixed by its recording.
func (r *replay) Seed(int64) { panic("serve: a replayed source cannot be reseeded") }

// finiteAbove reports whether x is finite and exceeds lo. NaN fails every
// comparison, so a plain "x <= lo" check lets it through; an infinite
// rate, factor or span collapses every arrival onto one instant or never
// ends a phase.
func finiteAbove(x, lo float64) bool { return x > lo && !math.IsInf(x, 1) }

func (g *genStream) Info() TraceInfo {
	return TraceInfo{
		Kind: g.cfg.Kind, Rate: g.cfg.Rate, Seed: g.cfg.Seed,
		Lengths: g.cfg.Lengths.Name, Tenants: TenantString(g.cfg.Tenants),
	}
}

func (g *genStream) Len() int { return g.cfg.Requests }

// Next advances the arrival clock by one draw of the configured process
// and attaches a length-profile draw. Arrivals are nondecreasing by
// construction in every process, so the stream needs no sorting.
func (g *genStream) Next() (Request, bool) {
	if g.next >= g.cfg.Requests {
		return Request{}, false
	}
	switch g.cfg.Kind {
	case Poisson:
		g.t += g.arr.ExpFloat64() / g.cfg.Rate
	case Bursty:
		for {
			rate := g.cfg.BurstFactor * g.cfg.Rate
			if !g.on {
				rate = g.cfg.Rate / 10
			}
			// Draw the next arrival at the phase rate; if the phase ends
			// first, switch state and redraw (valid by memorylessness).
			gap := g.arr.ExpFloat64() / rate
			if gap < g.phaseLeft {
				g.t += gap
				g.phaseLeft -= gap
				break
			}
			g.t += g.phaseLeft
			g.on = !g.on
			mean := g.onMean
			if !g.on {
				mean = g.offMean
			}
			g.phaseLeft = g.arr.ExpFloat64() * mean
		}
	case Diurnal:
		// Thinning against the sinusoidal envelope.
		peak := g.cfg.Rate * (1 + g.cfg.Swing)
		for {
			g.t += g.arr.ExpFloat64() / peak
			lambda := g.cfg.Rate * (1 + g.cfg.Swing*math.Sin(2*math.Pi*g.t/g.cfg.Period))
			if g.arr.Float64()*peak <= lambda {
				break
			}
		}
	case Flashcrowd:
		// Same phase mechanics as Bursty, but calm phases run at the
		// full baseline rate (a flash crowd adds load, it does not
		// borrow it from a trough).
		for {
			rate := g.cfg.Rate
			if g.on {
				rate = g.cfg.SurgeFactor * g.cfg.Rate
			}
			gap := g.arr.ExpFloat64() / rate
			if gap < g.phaseLeft {
				g.t += gap
				g.phaseLeft -= gap
				break
			}
			g.t += g.phaseLeft
			g.on = !g.on
			mean := g.offMean
			if g.on {
				mean = g.onMean
			}
			g.phaseLeft = g.arr.ExpFloat64() * mean
		}
	case Retrystorm:
		// One deterministic step pulse: thinning against the surge
		// envelope, with the instantaneous rate a step function of the
		// clock.
		peak := g.cfg.SurgeFactor * g.cfg.Rate
		for {
			g.t += g.arr.ExpFloat64() / peak
			lambda := g.cfg.Rate
			if g.t >= g.cfg.SurgePeriod && g.t < g.cfg.SurgePeriod+g.cfg.SurgeSpan {
				lambda = peak
			}
			if g.arr.Float64()*peak <= lambda {
				break
			}
		}
	}
	prompt, output := g.cfg.Lengths.draw(g.lens)
	r := Request{ID: g.next, Arrival: g.t, Prompt: prompt, Output: output}
	if g.cls != nil {
		u := g.cls.Float64()
		for i, cum := range g.shares {
			if u <= cum || i == len(g.shares)-1 {
				r.Class = g.cfg.Tenants[i].Class
				break
			}
		}
	}
	g.next++
	return r, true
}

// NewTrace draws a deterministic trace from the seeded generator — the
// materialized form of NewStream, for callers that want to inspect or
// reuse the schedule.
func NewTrace(cfg TraceConfig) (Trace, error) {
	src, err := NewStream(cfg)
	if err != nil {
		return Trace{}, err
	}
	info := src.Info()
	tr := Trace{Kind: info.Kind, Rate: info.Rate, Seed: info.Seed, Lengths: info.Lengths, Tenants: info.Tenants}
	tr.Requests = make([]Request, 0, src.Len())
	for {
		r, ok := src.Next()
		if !ok {
			break
		}
		tr.Requests = append(tr.Requests, r)
	}
	return tr, nil
}
