package serve

import (
	"fmt"
	"math"
	"testing"

	"mugi/internal/overload"
)

// drawsTenants is the tenant mix the Draws tests tag traces with.
var drawsTenants = []TenantSpec{
	{Class: overload.Interactive, Share: 1},
	{Class: overload.Standard, Share: 2},
	{Class: overload.BestEffort, Share: 5},
}

// sameStreams requires got to be want request for request: the same
// Info and Len, the same requests with arrivals equal bit for bit, and
// nothing past Len.
func sameStreams(t *testing.T, label string, got, want Stream) {
	t.Helper()
	if got.Info() != want.Info() || got.Len() != want.Len() {
		t.Fatalf("%s: info %+v, len %d; NewStream's %+v, len %d", label, got.Info(), got.Len(), want.Info(), want.Len())
	}
	for i := 0; ; i++ {
		g, gok := got.Next()
		w, wok := want.Next()
		same := math.Float64bits(g.Arrival) == math.Float64bits(w.Arrival)
		g.Arrival, w.Arrival = 0, 0
		if !same || g != w || gok != wok {
			t.Fatalf("%s: request %d differs from NewStream's", label, i)
		}
		if !wok {
			return
		}
	}
}

// TestDrawsMatchNewStream draws one recording per kind, tenant mix and
// seed through the rates of a capacity search: doubling from 1/128 to
// 64 req/s, then bisection steps down and up. Request counts go above
// and below the longest stream so far, and the seed changes once part
// way. Every stream must yield what a fresh NewStream of its config
// yields.
func TestDrawsMatchNewStream(t *testing.T) {
	var rates []float64
	for r := 1.0 / 128; r <= 64; r *= 2 {
		rates = append(rates, r)
	}
	lo, hi := 32.0, 64.0
	for i := range 6 {
		mid := math.Sqrt(lo * hi)
		rates = append(rates, mid)
		if i%2 == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	counts := []int{32, 8, 64, 1, 48, 96, 16}
	for _, kind := range TraceKinds() {
		for _, tenants := range [][]TenantSpec{nil, drawsTenants} {
			for _, seed := range []int64{1, 17, 2026} {
				var d Draws
				for i, rate := range rates {
					cfg := TraceConfig{
						Kind: kind, Rate: rate, Requests: counts[i%len(counts)], Seed: seed, Tenants: tenants,
						// Short phases, so the search's rates cross them.
						Period: 30, SurgePeriod: 20, SurgeSpan: 10,
					}
					if i >= len(rates)/2 {
						cfg.Seed = seed + 7919
					}
					got, err := d.Stream(cfg)
					if err != nil {
						t.Fatal(err)
					}
					want, err := NewStream(cfg)
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("%v tenants=%t seed %d, stream %d at %g req/s", kind, tenants != nil, cfg.Seed, i, rate)
					sameStreams(t, label, got, want)
				}
			}
		}
	}
}

// FuzzDrawsMatchNewStream draws two streams through one recording, the
// second at its own rate and length and, with reseed, the next seed. A
// nonzero timescale sets the diurnal Period and both flashcrowd and
// retrystorm phase lengths. Each stream must yield what a fresh
// NewStream of its config yields, and a config NewStream rejects must
// fail Draws.Stream with the same error. The seed corpus covers every
// kind, a seed change mid-recording, a second stream longer than the
// first, and the knob cases of TestTraceKnobsBounded that the fuzzed
// knobs can express.
func FuzzDrawsMatchNewStream(f *testing.F) {
	for _, kind := range TraceKinds() {
		f.Add(uint8(kind), int64(7), false, kind%2 == 0, 2.0, int16(32), 0.5, int16(16), 0.0)
	}
	f.Add(uint8(Poisson), int64(2026), true, false, 1.0, int16(32), 1.0, int16(32), 0.0)
	f.Add(uint8(Bursty), int64(-3), true, true, 0.25, int16(8), 4.0, int16(64), 0.0)
	f.Add(uint8(Diurnal), int64(11), false, false, 0.125, int16(4), 8.0, int16(200), 0.0)
	f.Add(uint8(Flashcrowd), int64(5), false, true, 16.0, int16(0), 16.0, int16(40), 0.0)
	for _, c := range knobCases() {
		// The fuzzer spans Rate and one time scale for Period, SurgeSpan
		// and SurgePeriod alike; a case setting any other knob is left out.
		cfg := c.cfg
		if cfg.BurstFactor != 0 || cfg.Swing != 0 || cfg.SurgeFactor != 0 || cfg.SurgeSpan != cfg.SurgePeriod {
			continue
		}
		timescale := max(cfg.Period, cfg.SurgeSpan) // no case sets both
		f.Add(uint8(cfg.Kind), cfg.Seed, false, false, cfg.Rate, int16(cfg.Requests), 1.0, int16(8), timescale)
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, reseed, tenants bool, rate1 float64, n1 int16, rate2 float64, n2 int16, timescale float64) {
		var d Draws
		for i, p := range []struct {
			rate float64
			n    int16
		}{{rate1, n1}, {rate2, n2}} {
			cfg := TraceConfig{
				Kind: TraceKind(kind), Rate: p.rate, Requests: int(p.n), Seed: seed,
				Period: timescale, SurgeSpan: timescale, SurgePeriod: timescale,
			}
			if tenants {
				cfg.Tenants = drawsTenants
			}
			if i == 1 && reseed {
				cfg.Seed++
			}
			got, gerr := d.Stream(cfg)
			want, werr := NewStream(cfg)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("stream %d of %+v: Draws.Stream error %v, NewStream's %v", i, cfg, gerr, werr)
			}
			if werr == nil {
				sameStreams(t, fmt.Sprintf("stream %d of %+v", i, cfg), got, want)
			}
		}
	})
}
