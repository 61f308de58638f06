package serve

import (
	"crypto/sha256"
	"fmt"
	"testing"

	"mugi/internal/faults"
	"mugi/internal/noc"
	"mugi/internal/overload"
)

// pinnedRow is one RunStreamStats run whose complete result is pinned.
type pinnedRow struct {
	name string
	cfg  func(t *testing.T) Config
	tc   TraceConfig
	sum  string // sha256 of fmt.Sprintf("%#v", RunStats)
}

// fastConfig is a Mugi(256) replica on a 4x4 mesh: fast enough that
// light traces leave it idle between requests and 2 req/s fills it.
func fastConfig() Config {
	cfg := baseConfig()
	cfg.Mesh = noc.NewMesh(4, 4)
	return cfg
}

// pinnedRows covers every place a scheduling round can stop early: a
// full batch with a waiting queue, a KV-deferred queue head, context
// bucket edges (including a MaxSeq clamp that is not a bucket multiple),
// crashes and a straggler with local retry and with hand-off, transient
// re-deliveries due within a round, the brownout ladder (climbing on a
// queue and walking back down on an empty one, with a dwell shorter
// than a round can leap), the full overload stack and bounded-queue
// shedding.
func pinnedRows() []pinnedRow {
	plain := func(mut func(*Config)) func(*testing.T) Config {
		return func(*testing.T) Config {
			cfg := fastConfig()
			mut(&cfg)
			return cfg
		}
	}
	crashy := func(handOff bool) func(*testing.T) Config {
		return func(t *testing.T) Config {
			cfg := fastConfig()
			cfg.Faults = faultySchedule(t, faults.Spec{MTBF: 150, MTTR: 30, StragglerProb: 1, StragglerFactor: 1.5, Seed: 5})
			cfg.Retry = RetryPolicy{MaxRedispatch: 4, Delay: 2, HandOff: handOff}
			return cfg
		}
	}
	return []pinnedRow{
		{"full batch", plain(func(c *Config) { c.MaxBatch = 4 }),
			TraceConfig{Kind: Poisson, Rate: 2, Requests: 300, Seed: 5},
			"b20c6512e08af7494877ec2486e98123b4c096763c1e0067e3312d7fb167a93c"},
		{"kv deferred", plain(func(c *Config) { c.KVBudgetBytes = 1 << 30 }),
			TraceConfig{Kind: Poisson, Rate: 2, Requests: 300, Seed: 6},
			"74b22c775df225acf93fc1c9636b2c5db439baab7ddfd12cf0e6a2fbc3374ced"},
		{"ctx bucket 1", plain(func(c *Config) { c.CtxBucket = 1 }),
			TraceConfig{Kind: Bursty, Rate: 0.5, Requests: 300, Seed: 7},
			"95e071478957de6c32dcebed363be97b54415ba61d3c00e346c2073fe00d4d36"},
		{"ctx bucket 7 rag", plain(func(c *Config) { c.CtxBucket = 7 }),
			TraceConfig{Kind: Poisson, Rate: 0.5, Requests: 300, Seed: 8, Lengths: RAGLengths()},
			"41b28baa68bb1087bf1f05fd2d94f1cc83cf9a38fb380e9219ad7e339355ae3b"},
		{"crash local retry", crashy(false),
			TraceConfig{Kind: Poisson, Rate: 0.3, Requests: 200, Seed: 9},
			"19c8f3e681db5e580d88ebea81844e2f429a4429a65e67059ea3701589e6c81e"},
		{"crash hand-off", crashy(true),
			TraceConfig{Kind: Poisson, Rate: 0.3, Requests: 200, Seed: 9},
			"e38b6439a52bd85917c460ed8e0668b29a4a4d19bc0d85e3740914604f44bb02"},
		{"transient low load", func(t *testing.T) Config {
			cfg := fastConfig()
			cfg.Faults = faultySchedule(t, faults.Spec{TransientProb: 0.5, Seed: 3})
			cfg.Retry.Delay = 0.01
			return cfg
		}, TraceConfig{Kind: Poisson, Rate: 0.2, Requests: 200, Seed: 3},
			"94d34e0796d7e48b620a4796a815f07663399700803ae593877389de109ddf13"},
		{"brownout flash crowd", plain(func(c *Config) { c.Brownout = &overload.BrownoutSpec{} }),
			TraceConfig{Kind: Flashcrowd, Rate: 2, Requests: 240, Seed: 3},
			"89055890adda5ed35a3e36bce0f3e3576f0ace2a4b95dc20badf6d49455c56e8"},
		{"brownout dwell", plain(func(c *Config) {
			c.MaxBatch, c.CtxBucket = 2, 128
			c.Brownout = &overload.BrownoutSpec{HighWater: 4, Dwell: 2}
		}), TraceConfig{Kind: Bursty, Rate: 0.5, Requests: 200, Seed: 4},
			"dbad04e609beab0880ac43d825951d1ed4be4c6a6c1ca0244902c95cdf26f754"},
		{"overload stack", func(*testing.T) Config {
			cfg := baseConfig()
			cfg.MaxQueue = 8
			cfg.Admission = &overload.AdmissionSpec{}
			cfg.Brownout = &overload.BrownoutSpec{Steps: overload.DefaultBrownoutSteps(), HighWater: 6, Dwell: 10}
			cfg.ClientRetry = overload.ClientRetrySpec{Backoff: 10, MaxAttempts: 2}
			return cfg
		}, TraceConfig{
			Kind: Flashcrowd, Rate: 0.5, Requests: 160, Seed: 7,
			SurgeFactor: 4, SurgeSpan: 120, SurgePeriod: 600,
			Tenants: tenantMix(),
		},
			"5ca6a094723c7614e0334a4c9bbcea37d4f31df4733524c7f5be4f8df640f6a3"},
		{"max queue shed", func(*testing.T) Config {
			cfg := baseConfig()
			cfg.MaxQueue = 4
			return cfg
		}, TraceConfig{Kind: Poisson, Rate: 2, Requests: 200, Seed: 10},
			"8a4ecf57eec2fd7477e8938f9a66f138d20dfaf7618b9031227fe361e71f7dd7"},
	}
}

// TestRunStatsPinned pins serve's complete output, byte for byte, on
// runs that stop a scheduling round at every kind of event. The digest
// covers the whole RunStats in Go syntax (%#v, so Report's rounding
// String method is bypassed): every float exactly, every histogram
// bucket, and the orphan list. Every row refills the one RunStats the
// row before it filled, so a field or bucket a run fails to replace
// shows as well. A mismatch prints the new digest; update it only for a
// change that is meant to move serve's numbers.
func TestRunStatsPinned(t *testing.T) {
	var st RunStats
	for _, row := range pinnedRows() {
		t.Run(row.name, func(t *testing.T) {
			src, err := NewStream(row.tc)
			if err != nil {
				t.Fatal(err)
			}
			if err := RunStreamStats(row.cfg(t), src, nil, &st); err != nil {
				t.Fatal(err)
			}
			if got := goDigest(st); got != row.sum {
				t.Errorf("RunStats digest %s, pinned %s\n%s", got, row.sum, st.Report)
			}
		})
	}
}

// goDigest is the sha256 of a value in Go syntax.
func goDigest(v any) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%#v", v))))
}
