package serve

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"mugi/internal/overload"
)

func TestTraceKindRoundTrip(t *testing.T) {
	for _, k := range TraceKinds() {
		got, err := ParseTraceKind(k.String())
		if err != nil || got != k {
			t.Errorf("ParseTraceKind(%q) = %v, %v", k.String(), got, err)
		}
	}
	if _, err := ParseTraceKind("uniform"); err == nil {
		t.Error("unknown kind should error")
	}
}

func TestTraceValidates(t *testing.T) {
	bad := []TraceConfig{
		{Kind: Poisson, Rate: 0, Requests: 10},
		{Kind: Poisson, Rate: -1, Requests: 10},
		{Kind: Poisson, Rate: 1, Requests: 0},
		{Kind: Bursty, Rate: 1, Requests: 10, BurstFactor: 0.5},
		{Kind: Diurnal, Rate: 1, Requests: 10, Swing: 1.5},
		{Kind: TraceKind(99), Rate: 1, Requests: 10},
	}
	for _, cfg := range bad {
		if _, err := NewTrace(cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}

func TestTraceDeterministicAndOrdered(t *testing.T) {
	for _, kind := range TraceKinds() {
		cfg := TraceConfig{Kind: kind, Rate: 2, Requests: 200, Seed: 42}
		a, err := NewTrace(cfg)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		b, _ := NewTrace(cfg)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%v: identical seed produced different traces", kind)
		}
		c, _ := NewTrace(TraceConfig{Kind: kind, Rate: 2, Requests: 200, Seed: 43})
		if reflect.DeepEqual(a.Requests, c.Requests) {
			t.Errorf("%v: different seeds produced identical traces", kind)
		}
		last := 0.0
		for i, r := range a.Requests {
			if r.Arrival < last {
				t.Fatalf("%v: arrivals out of order at %d", kind, i)
			}
			last = r.Arrival
			if r.Prompt < 1 || r.Output < 1 || r.ID != i {
				t.Fatalf("%v: malformed request %+v", kind, r)
			}
		}
	}
}

// TestTraceMeanRate: the stationary arrival processes must realize
// their configured long-run mean rate within sampling error; the surge
// processes (Flashcrowd, Retrystorm) treat Rate as the calm baseline,
// so their realized rate lands strictly above it but below the surge
// envelope.
func TestTraceMeanRate(t *testing.T) {
	for _, kind := range TraceKinds() {
		tr, err := NewTrace(TraceConfig{Kind: kind, Rate: 5, Requests: 4000, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		r := tr.OfferedRate()
		switch kind {
		case Flashcrowd, Retrystorm:
			if r <= 5 || r >= 5*4 {
				t.Errorf("%v: offered rate %.2f outside surge envelope (5, 20)", kind, r)
			}
		default:
			if math.Abs(r-5)/5 > 0.25 {
				t.Errorf("%v: offered rate %.2f, configured 5", kind, r)
			}
		}
	}
}

// TestBurstyIsBurstier: the squared coefficient of variation of bursty
// inter-arrivals must exceed the Poisson baseline (~1).
func TestBurstyIsBurstier(t *testing.T) {
	cv2 := func(kind TraceKind) float64 {
		tr, err := NewTrace(TraceConfig{Kind: kind, Rate: 4, Requests: 4000, Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		var gaps []float64
		for i := 1; i < len(tr.Requests); i++ {
			gaps = append(gaps, tr.Requests[i].Arrival-tr.Requests[i-1].Arrival)
		}
		var mean float64
		for _, g := range gaps {
			mean += g
		}
		mean /= float64(len(gaps))
		var v float64
		for _, g := range gaps {
			v += (g - mean) * (g - mean)
		}
		v /= float64(len(gaps))
		return v / (mean * mean)
	}
	pois, burst := cv2(Poisson), cv2(Bursty)
	if burst < pois*1.5 {
		t.Errorf("bursty CV² %.2f not clearly above poisson %.2f", burst, pois)
	}
}

// TestDiurnalRateVaries: arrivals must be denser at the sinusoid peak
// than in the trough.
func TestDiurnalRateVaries(t *testing.T) {
	tr, err := NewTrace(TraceConfig{Kind: Diurnal, Rate: 10, Requests: 6000, Seed: 5, Period: 100, Swing: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	// Peak quarter of the cycle is centered on t=25, trough on t=75.
	var peak, trough int
	for _, r := range tr.Requests {
		phase := math.Mod(r.Arrival, 100)
		switch {
		case phase >= 12.5 && phase < 37.5:
			peak++
		case phase >= 62.5 && phase < 87.5:
			trough++
		}
	}
	if peak < trough*2 {
		t.Errorf("diurnal peak %d arrivals vs trough %d: no visible cycle", peak, trough)
	}
}

func TestLengthProfilesDiffer(t *testing.T) {
	chat, _ := NewTrace(TraceConfig{Kind: Poisson, Rate: 1, Requests: 500, Seed: 1})
	rag, _ := NewTrace(TraceConfig{Kind: Poisson, Rate: 1, Requests: 500, Seed: 1, Lengths: RAGLengths()})
	cp, _ := chat.TotalTokens()
	rp, _ := rag.TotalTokens()
	if rp <= cp*2 {
		t.Errorf("rag prompts (%d tokens) should dwarf chat prompts (%d tokens)", rp, cp)
	}
	if chat.Lengths != "chat" || rag.Lengths != "rag" {
		t.Errorf("profile names %q %q", chat.Lengths, rag.Lengths)
	}
}

func TestParseLengthProfile(t *testing.T) {
	for _, s := range []string{"chat", "rag"} {
		p, err := ParseLengthProfile(s)
		if err != nil || p.Name != s {
			t.Errorf("ParseLengthProfile(%q) = %+v, %v", s, p, err)
		}
	}
	if _, err := ParseLengthProfile("code"); err == nil {
		t.Error("unknown profile should error")
	}
}

// TestStreamRejectsNonFiniteKnobs: every float knob of a trace config
// must be finite. A NaN fails every "x <= 0" check, so before these were
// rejected a NaN rate, burst factor, period or swing hung the generator
// and a NaN surge or share was silently accepted; a +Inf rate put every
// arrival at t = 0. The test only calls NewStream, so it cannot hang.
func TestStreamRejectsNonFiniteKnobs(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	base := func(kind TraceKind) TraceConfig {
		return TraceConfig{Kind: kind, Rate: 1, Requests: 5, Seed: 1}
	}
	lengths := func(set func(*LengthProfile)) TraceConfig {
		cfg := base(Poisson)
		cfg.Lengths = ChatLengths()
		set(&cfg.Lengths)
		return cfg
	}
	cases := []struct {
		field string
		cfg   TraceConfig
	}{
		{"Rate", TraceConfig{Kind: Poisson, Rate: nan, Requests: 5}},
		{"Rate", TraceConfig{Kind: Poisson, Rate: inf, Requests: 5}},
		{"BurstFactor", TraceConfig{Kind: Bursty, Rate: 1, Requests: 5, BurstFactor: nan}},
		{"BurstFactor", TraceConfig{Kind: Bursty, Rate: 1, Requests: 5, BurstFactor: inf}},
		{"Period", TraceConfig{Kind: Diurnal, Rate: 1, Requests: 5, Period: nan}},
		{"Period", TraceConfig{Kind: Diurnal, Rate: 1, Requests: 5, Period: inf}},
		{"Swing", TraceConfig{Kind: Diurnal, Rate: 1, Requests: 5, Swing: nan}},
		{"SurgeFactor", TraceConfig{Kind: Flashcrowd, Rate: 1, Requests: 5, SurgeFactor: nan}},
		{"SurgeFactor", TraceConfig{Kind: Retrystorm, Rate: 1, Requests: 5, SurgeFactor: inf}},
		{"SurgeSpan", TraceConfig{Kind: Flashcrowd, Rate: 1, Requests: 5, SurgeSpan: nan}},
		{"SurgeSpan", TraceConfig{Kind: Flashcrowd, Rate: 1, Requests: 5, SurgeSpan: inf}},
		{"SurgePeriod", TraceConfig{Kind: Flashcrowd, Rate: 1, Requests: 5, SurgePeriod: nan}},
		{"SurgePeriod", TraceConfig{Kind: Retrystorm, Rate: 1, Requests: 5, SurgePeriod: inf}},
		{"Share", TraceConfig{Kind: Poisson, Rate: 1, Requests: 5, Tenants: []TenantSpec{{Share: nan}}}},
		{"Share", TraceConfig{Kind: Poisson, Rate: 1, Requests: 5, Tenants: []TenantSpec{{Share: 1}, {Share: inf}}}},
		{"PromptMeanLog", lengths(func(l *LengthProfile) { l.PromptMeanLog = nan })},
		{"PromptStdLog", lengths(func(l *LengthProfile) { l.PromptStdLog = inf })},
		{"OutputMeanLog", lengths(func(l *LengthProfile) { l.OutputMeanLog = math.Inf(-1) })},
		{"OutputStdLog", lengths(func(l *LengthProfile) { l.OutputStdLog = nan })},
	}
	for _, c := range cases {
		_, err := NewStream(c.cfg)
		if err == nil {
			t.Errorf("%s: config %+v accepted", c.field, c.cfg)
			continue
		}
		if !strings.Contains(err.Error(), c.field) {
			t.Errorf("%s: error %q does not name the field", c.field, err)
		}
	}
	// The same knobs at ordinary finite values still build a stream.
	for _, kind := range TraceKinds() {
		if _, err := NewStream(base(kind)); err != nil {
			t.Errorf("%v: default knobs rejected: %v", kind, err)
		}
	}
}

// TestKindSpecificKnobsScoped: another kind's knob settings must not
// invalidate a config (BurstFactor is bursty-only, Swing diurnal-only).
func TestKindSpecificKnobsScoped(t *testing.T) {
	if _, err := NewTrace(TraceConfig{Kind: Poisson, Rate: 1, Requests: 5, BurstFactor: 0.5, Swing: -2}); err != nil {
		t.Errorf("poisson config rejected by bursty/diurnal knobs: %v", err)
	}
	if _, err := NewTrace(TraceConfig{Kind: Diurnal, Rate: 1, Requests: 5, Period: -3}); err == nil {
		t.Error("negative diurnal period should fail")
	}
}

// TestParseTenants: a share is a positive finite number and nothing
// else, so trailing text, Inf and NaN fail at parse time instead of
// parsing as a prefix or failing later in NewStream.
func TestParseTenants(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []TenantSpec // nil with ok: no mix
		ok   bool
	}{
		{"", nil, true},
		{"interactive:0.25,standard:0.25,best-effort:0.5", []TenantSpec{
			{Class: overload.Interactive, Share: 0.25},
			{Class: overload.Standard, Share: 0.25},
			{Class: overload.BestEffort, Share: 0.5},
		}, true},
		{" standard: 3 ", []TenantSpec{{Class: overload.Standard, Share: 3}}, true},
		{"interactive:1e-3", []TenantSpec{{Class: overload.Interactive, Share: 1e-3}}, true},
		{"interactive:0.5abc", nil, false},
		{"interactive:0.5 0.5", nil, false},
		{"interactive:Inf", nil, false},
		{"interactive:+Inf", nil, false},
		{"interactive:NaN", nil, false},
		{"interactive:1e400", nil, false},
		{"interactive:0", nil, false},
		{"interactive:-1", nil, false},
		{"interactive:", nil, false},
		{"interactive", nil, false},
		{"vip:1", nil, false},
		{"interactive:1,", nil, false},
	} {
		got, err := ParseTenants(tc.in)
		if (err == nil) != tc.ok || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseTenants(%q) = %+v, %v; want %+v, ok %t", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// knobCase is one trace config at the edge of a knob's range.
type knobCase struct {
	knob string // the knob a rejection must name; "" when the config is accepted
	cfg  TraceConfig
}

// knobCases are the trace configs TestTraceKnobsBounded runs. The
// rejected ones each hung the generator or gave +Inf arrivals before
// resolve bounded the knobs: a peak rate that overflows to +Inf, a gap
// 1/Rate that does, a clock whose sinusoid argument does, thinning that
// almost never accepts, or phases that each advance the clock by a
// negligible step. The accepted ones sit on the bounds.
func knobCases() []knobCase {
	tc := func(kind TraceKind, rate float64) TraceConfig {
		return TraceConfig{Kind: kind, Rate: rate, Requests: 64, Seed: 3}
	}
	with := func(cfg TraceConfig, set func(*TraceConfig)) TraceConfig {
		set(&cfg)
		return cfg
	}
	// The shortest time scale the bounds allow, at the lowest rate.
	shortest := minTimescaleGaps / minTraceRate
	return []knobCase{
		{"Rate", tc(Diurnal, 1e308)},
		{"Rate", tc(Diurnal, 1e-310)},
		{"Rate", tc(Retrystorm, 1e308)},
		{"Rate", tc(Flashcrowd, 1e-310)},
		{"Rate", tc(Poisson, 1e-310)},
		{"Rate", tc(Bursty, 1e-310)},
		{"Rate", tc(Poisson, 2*maxTracePeak)},
		{"BurstFactor", with(tc(Bursty, 1e8), func(c *TraceConfig) { c.BurstFactor = 100 })},
		{"SurgeFactor", with(tc(Flashcrowd, 1e6), func(c *TraceConfig) { c.SurgeFactor = 1e300 })},
		{"SurgeSpan", with(tc(Flashcrowd, 1), func(c *TraceConfig) { c.SurgeSpan, c.SurgePeriod = 1e-300, 1e-300 })},
		{"SurgePeriod", with(tc(Flashcrowd, 1), func(c *TraceConfig) { c.SurgePeriod = 1e-300 })},
		{"Period", with(tc(Diurnal, 1e-6), func(c *TraceConfig) { c.Period = 1e-300 })},
		{"SurgeFactor", with(tc(Retrystorm, 1), func(c *TraceConfig) { c.SurgeFactor = 1e9 })},

		{"", tc(Poisson, minTraceRate)},
		{"", tc(Bursty, minTraceRate)},
		{"", with(tc(Diurnal, minTraceRate), func(c *TraceConfig) { c.Period = shortest })},
		{"", with(tc(Flashcrowd, minTraceRate), func(c *TraceConfig) { c.SurgeSpan, c.SurgePeriod = shortest, shortest })},
		{"", tc(Retrystorm, minTraceRate)},
		{"", tc(Poisson, maxTracePeak)},
		{"", with(tc(Bursty, maxTracePeak/4), func(c *TraceConfig) { c.BurstFactor = 4 })},
		{"", with(tc(Diurnal, maxTracePeak/2), func(c *TraceConfig) { c.Swing = 0.5 })},
		{"", with(tc(Flashcrowd, 1), func(c *TraceConfig) { c.SurgeSpan, c.SurgePeriod = minTimescaleGaps, minTimescaleGaps })},
		{"", with(tc(Retrystorm, 1), func(c *TraceConfig) { c.SurgeFactor = maxThinning })},
	}
}

// TestTraceKnobsBounded runs every knob case through NewStream and
// Draws.Stream under a watchdog, so a generator that hangs fails the
// test instead of stalling it. A rejected case must fail both with an
// error naming its knob; an accepted one must yield every request with
// finite, nondecreasing arrivals.
func TestTraceKnobsBounded(t *testing.T) {
	const watchdog = 5 * time.Second
	for _, c := range knobCases() {
		var d Draws
		for _, entry := range []struct {
			name   string
			stream func(TraceConfig) (Stream, error)
		}{{"NewStream", NewStream}, {"Draws.Stream", d.Stream}} {
			label := fmt.Sprintf("%s of %v at %g req/s", entry.name, c.cfg.Kind, c.cfg.Rate)
			done := make(chan error, 1)
			go func() { done <- drainChecked(entry.stream, c) }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s: %v", label, err)
				}
			case <-time.After(watchdog):
				t.Fatalf("%s: no answer within %v", label, watchdog)
			}
		}
	}
}

// drainChecked builds c's stream and, if c should be accepted, drains it,
// checking that every arrival is finite and none goes back in time.
func drainChecked(stream func(TraceConfig) (Stream, error), c knobCase) error {
	src, err := stream(c.cfg)
	if c.knob != "" {
		if err == nil {
			return fmt.Errorf("accepted; want an error naming %s", c.knob)
		}
		if !strings.Contains(err.Error(), c.knob) {
			return fmt.Errorf("error %q does not name %s", err, c.knob)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("rejected: %v", err)
	}
	last := 0.0
	for i := 0; ; i++ {
		r, ok := src.Next()
		if !ok {
			if i != c.cfg.Requests {
				return fmt.Errorf("%d requests, want %d", i, c.cfg.Requests)
			}
			return nil
		}
		if math.IsInf(r.Arrival, 0) || math.IsNaN(r.Arrival) || r.Arrival < last {
			return fmt.Errorf("request %d arrives at %g after %g", i, r.Arrival, last)
		}
		last = r.Arrival
	}
}
