package main

import (
	"io"
	"math"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"unsafe"

	"mugi"
	"mugi/internal/raceflag"
)

// validateCase changes the flag defaults; validate must reject the
// result exactly when wantErr is set.
type validateCase struct {
	name    string
	mutate  func(o *options)
	wantErr bool
}

func checkValidate(t *testing.T, cases []validateCase) {
	t.Helper()
	for _, c := range cases {
		o, _ := newOptions(io.Discard)
		c.mutate(o)
		if err := o.validate(); (err != nil) != c.wantErr {
			t.Errorf("%s: got err %v, want error=%v", c.name, err, c.wantErr)
		}
	}
}

// TestValidateFlags pins the contradictory-combo rejections: two mode
// flags at once, an empty single-pass batch or context, a replica floor
// above the ceiling, and rates or probabilities outside their domains
// must all fail before any simulation starts.
func TestValidateFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	checkValidate(t, []validateCase{
		{"baseline", func(o *options) { o.fleet = true }, false},
		{"unsized ceiling", func(o *options) { o.maxReplicas, o.minReplicas = 0, 9 }, false},
		{"two modes", func(o *options) { o.serve, o.fleet = true, true }, true},
		{"floor above ceiling", func(o *options) { o.minReplicas, o.maxReplicas = 5, 2 }, true},
		{"negative floor", func(o *options) { o.minReplicas = -1 }, true},
		{"zero rate", func(o *options) { o.rate = 0 }, true},
		{"negative requests", func(o *options) { o.requests = -1 }, true},
		{"zero requests", func(o *options) { o.requests = 0 }, true},
		{"zero requests sized by autoscale", func(o *options) { o.autoscale, o.requests = true, 0 }, false},
		{"negative parallel", func(o *options) { o.parallel = -1 }, true},
		{"negative mtbf", func(o *options) { o.mtbf = -1 }, true},
		{"negative mttr", func(o *options) { o.mttr = -1 }, true},
		{"straggler above one", func(o *options) { o.straggler = 1.5 }, true},
		{"nines above one", func(o *options) { o.nines = 1.1 }, true},
		{"zero nines", func(o *options) { o.nines = 0 }, true},
		{"zero seq", func(o *options) { o.seq = 0 }, true},
		{"negative seq", func(o *options) { o.seq = -3 }, true},
		{"zero batch", func(o *options) { o.batch = 0 }, true},
		{"NaN rate", func(o *options) { o.rate = nan }, true},
		{"infinite rate", func(o *options) { o.rate = inf }, true},
		{"NaN mtbf", func(o *options) { o.mtbf = nan }, true},
		{"infinite mtbf", func(o *options) { o.mtbf = inf }, true},
		{"NaN mttr", func(o *options) { o.mttr = nan }, true},
		{"infinite mttr", func(o *options) { o.mttr = inf }, true},
		{"NaN straggler", func(o *options) { o.straggler = nan }, true},
		{"NaN nines", func(o *options) { o.nines = nan }, true},
		{"unbounded SLO", func(o *options) { o.sloTTFT, o.sloLatency = 0, 0 }, false},
		{"NaN slo-ttft", func(o *options) { o.sloTTFT = nan }, true},
		{"infinite slo-ttft", func(o *options) { o.sloTTFT = inf }, true},
		{"negative slo-latency", func(o *options) { o.sloLatency = -5 }, true},
		{"NaN slo-latency", func(o *options) { o.sloLatency = nan }, true},
		{"NaN utilization", func(o *options) { o.utilization = nan }, true},
		{"utilization above one", func(o *options) { o.utilization = 7 }, true},
		{"negative utilization", func(o *options) { o.utilization = -0.5 }, true},
		{"explicit KV budget", func(o *options) { o.kvBudgetGiB = 16 }, false},
		{"negative KV budget", func(o *options) { o.kvBudgetGiB = -1 }, true},
		{"NaN KV budget", func(o *options) { o.kvBudgetGiB = nan }, true},
		{"KV budget past int64 bytes", func(o *options) { o.kvBudgetGiB = 1e10 }, true},
	})
}

// TestValidateOverloadFlags pins the overload-flag rejections: -surge
// without -overload, a brownout ladder with zero rungs (or more than
// the built-in ladder has), and breaker thresholds outside (0,1].
func TestValidateOverloadFlags(t *testing.T) {
	nan := math.NaN()
	checkValidate(t, []validateCase{
		{"defaults no mode", func(o *options) {}, false},
		{"overload defaults", func(o *options) { o.overload = true }, false},
		{"surge with overload", func(o *options) { o.overload, o.set["surge"], o.surge = true, true, 6 }, false},
		{"breaker armed", func(o *options) { o.overload, o.breaker = true, 0.1 }, false},
		{"breaker at one", func(o *options) { o.overload, o.breaker = true, 1 }, false},
		{"shallow ladder", func(o *options) { o.overload, o.brownoutLadder = true, 1 }, false},
		{"surge without overload", func(o *options) { o.set["surge"], o.surge = true, 6 }, true},
		{"surge below one", func(o *options) { o.overload, o.surge = true, 0.5 }, true},
		{"zero-rung ladder", func(o *options) { o.overload, o.brownoutLadder = true, 0 }, true},
		{"ladder too deep", func(o *options) { o.overload, o.brownoutLadder = true, 4 }, true},
		{"breaker above one", func(o *options) { o.overload, o.breaker = true, 1.5 }, true},
		{"negative breaker", func(o *options) { o.overload, o.breaker = true, -0.1 }, true},
		{"NaN breaker", func(o *options) { o.overload, o.breaker = true, nan }, true},
	})
}

// TestParseOrder pins which error a command with several bad flags
// reports. Each mode resolves the inputs it reads in a fixed order,
// whatever order the command line gives them in, so with every flag from
// some point of a mode's chain on bad, the first of them is named.
func TestParseOrder(t *testing.T) {
	bad := map[string]struct{ value, err string }{
		"design":   {"tpu", `unknown design "tpu"`},
		"model":    {"GPT-5", `unknown model "GPT-5"`},
		"mesh":     {"0x4", `bad mesh "0x4"`},
		"trace":    {"spiky", `unknown trace kind "spiky"`},
		"lengths":  {"code", `unknown length profile "code"`},
		"policy":   {"random", `unknown policy "random"`},
		"replicas": {"0", `bad count "0"`},
		"spares":   {"x", `bad count "x"`},
		"designs":  {"mugi,npu", `unknown design "npu"`},
		"meshes":   {"2x2,4x0", `bad mesh "4x0"`},
		"tenants":  {"vip:1", `unknown class "vip"`},
	}
	for mode, chain := range map[string][]string{
		"":          {"design", "model", "mesh"},
		"serve":     {"design", "model", "mesh", "trace", "lengths"},
		"capacity":  {"model", "trace", "lengths", "designs", "meshes"},
		"fleet":     {"model", "trace", "lengths", "policy", "replicas", "designs", "meshes"},
		"autoscale": {"design", "model", "mesh", "trace", "lengths", "policy"},
		"faults":    {"model", "trace", "lengths", "policy", "replicas", "spares", "designs", "meshes"},
		"overload":  {"design", "model", "mesh", "trace", "lengths", "tenants"},
	} {
		for i, first := range chain {
			var args []string
			if mode != "" {
				args = append(args, "-"+mode)
			}
			for j := len(chain) - 1; j >= i; j-- {
				args = append(args, "-"+chain[j], bad[chain[j]].value)
			}
			var stderr strings.Builder
			if code := run(args, io.Discard, &stderr); code != 1 || !strings.Contains(stderr.String(), bad[first].err) {
				t.Errorf("%q: exit %d, %q; want exit 1 naming -%s", args, code, stderr.String(), first)
			}
		}
	}
}

// TestParseCounts covers the CSV count parser behind -replicas and
// -spares.
func TestParseCounts(t *testing.T) {
	got, err := parseCounts(" 0, 1,2", 0)
	if err != nil || len(got) != 3 || got[0] != 0 || got[2] != 2 {
		t.Errorf("parseCounts: got %v, %v", got, err)
	}
	if _, err := parseCounts("0,1", 1); err == nil {
		t.Error("count below floor accepted")
	}
	if _, err := parseCounts("1,x", 0); err == nil {
		t.Error("non-integer count accepted")
	}
}

func TestParseLengthProfileFlag(t *testing.T) {
	for _, s := range []string{"chat", "CHAT", "rag"} {
		p, err := mugi.ParseLengthProfile(s)
		if err != nil || p.MaxPrompt == 0 {
			t.Errorf("ParseLengthProfile(%q) = %+v, %v", s, p, err)
		}
	}
	if _, err := mugi.ParseLengthProfile("code"); err == nil {
		t.Error("unknown profile should error")
	}
}

// TestServeStreamsItsTrace: -serve pulls its trace lazily, so a run
// allocates far less than its requests would take held in full. Building
// the whole trace first ran a 2e9-request run out of memory before it
// simulated anything.
func TestServeStreamsItsTrace(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation sizes are not representative under the race detector")
	}
	const requests = 200_000
	var tr mugi.RequestTrace
	full := uint64(requests) * uint64(unsafe.Sizeof(tr.Requests[0]))
	var stderr strings.Builder
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	code := run([]string{"-serve", "-mesh", "4x4", "-model", "Llama 2 7B",
		"-requests", strconv.Itoa(requests)}, io.Discard, &stderr)
	runtime.ReadMemStats(&after)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= full {
		t.Errorf("a %d-request run allocated %d bytes, at least its %d bytes of requests held in full",
			requests, got, full)
	}
}
