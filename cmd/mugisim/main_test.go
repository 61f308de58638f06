package main

import (
	"math"
	"strings"
	"testing"

	"mugi"
)

func TestBuildDesign(t *testing.T) {
	cases := []struct {
		kind string
		rows int
		want string
	}{
		{"mugi", 128, "Mugi (128)"},
		{"MUGI", 64, "Mugi (64)"},
		{"mugil", 128, "Mugi-L (128)"},
		{"mugi-l", 128, "Mugi-L (128)"},
		{"carat", 256, "Carat (256)"},
		{"sa", 16, "SA (16)"},
		{"saf", 16, "SA-F (16)"},
		{"sa-f", 16, "SA-F (16)"},
		{"sd", 16, "SD (16)"},
		{"sdf", 16, "SD-F (16)"},
		{"tensor", 0, "Tensor"},
	}
	for _, c := range cases {
		d, err := buildDesign(c.kind, c.rows)
		if err != nil || d.Name != c.want {
			t.Errorf("buildDesign(%q, %d) = %q, %v", c.kind, c.rows, d.Name, err)
		}
	}
	if _, err := buildDesign("tpu", 8); err == nil {
		t.Error("unknown design should error")
	}
	// Below its smallest dimension a design's nonlinear unit has no lane;
	// the error names that dimension.
	for _, c := range []struct {
		kind string
		rows int
		want string
	}{
		{"mugil", 4, "at least 8"},
		{"mugi-l", 7, "at least 8"},
		{"carat", 2, "at least 3"},
	} {
		if _, err := buildDesign(c.kind, c.rows); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("buildDesign(%q, %d) error %v, want one containing %q", c.kind, c.rows, err, c.want)
		}
	}
}

func TestParseMesh(t *testing.T) {
	m, err := parseMesh("4x4")
	if err != nil || m.Nodes() != 16 {
		t.Errorf("parseMesh(4x4): %v %v", m, err)
	}
	m, err = parseMesh("2x1")
	if err != nil || m.Nodes() != 2 {
		t.Errorf("parseMesh(2x1): %v %v", m, err)
	}
	for _, bad := range []string{"", "4", "ax4", "0x4", "-1x2"} {
		if _, err := parseMesh(bad); err == nil {
			t.Errorf("parseMesh(%q) should error", bad)
		}
	}
}

// flagCase perturbs one field of a passing baseline at a time.
type flagCase struct {
	name                     string
	modes                    int
	batch, seq               int
	minReplicas, maxReplicas int
	rate                     float64
	requests, parallel       int
	mtbf, mttr               float64
	straggler, ninesTarget   float64
	sloTTFT, sloLatency      float64
	utilization, kvBudgetGB  float64
	wantErr                  bool
}

func okCase(name string) flagCase {
	return flagCase{
		name: name, modes: 1, batch: 8, seq: 4096, minReplicas: 1, maxReplicas: 4,
		rate: 0.5, requests: 48, mtbf: 120, mttr: 60, ninesTarget: 0.99,
		sloTTFT: 60, sloLatency: 300,
	}
}

// TestValidateFlags pins the contradictory-combo rejections: two mode
// flags at once, an empty single-pass batch or context, a replica floor
// above the ceiling, and rates or probabilities outside their domains
// must all fail before any simulation starts.
func TestValidateFlags(t *testing.T) {
	cases := []flagCase{
		okCase("baseline"),
		okCase("unsized ceiling"),
		okCase("two modes"),
		okCase("floor above ceiling"),
		okCase("negative floor"),
		okCase("zero rate"),
		okCase("negative requests"),
		okCase("negative parallel"),
		okCase("negative mtbf"),
		okCase("negative mttr"),
		okCase("straggler above one"),
		okCase("nines above one"),
		okCase("zero nines"),
		okCase("zero seq"),
		okCase("negative seq"),
		okCase("zero batch"),
		okCase("NaN rate"),
		okCase("infinite rate"),
		okCase("NaN mtbf"),
		okCase("infinite mtbf"),
		okCase("NaN mttr"),
		okCase("infinite mttr"),
		okCase("NaN straggler"),
		okCase("NaN nines"),
		okCase("unbounded SLO"),
		okCase("NaN slo-ttft"),
		okCase("infinite slo-ttft"),
		okCase("negative slo-latency"),
		okCase("NaN slo-latency"),
		okCase("NaN utilization"),
		okCase("utilization above one"),
		okCase("negative utilization"),
		okCase("explicit KV budget"),
		okCase("negative KV budget"),
		okCase("NaN KV budget"),
		okCase("KV budget past int64 bytes"),
	}
	cases[1].maxReplicas = 0 // 0 = "size from the static plan": any floor is fine
	cases[1].minReplicas = 9
	cases[2].modes = 2
	cases[2].wantErr = true
	cases[3].minReplicas = 5
	cases[3].maxReplicas = 2
	cases[3].wantErr = true
	cases[4].minReplicas = -1
	cases[4].wantErr = true
	cases[5].rate = 0
	cases[5].wantErr = true
	cases[6].requests = -1
	cases[6].wantErr = true
	cases[7].parallel = -1
	cases[7].wantErr = true
	cases[8].mtbf = -1
	cases[8].wantErr = true
	cases[9].mttr = -1
	cases[9].wantErr = true
	cases[10].straggler = 1.5
	cases[10].wantErr = true
	cases[11].ninesTarget = 1.1
	cases[11].wantErr = true
	cases[12].ninesTarget = 0
	cases[12].wantErr = true
	cases[13].seq = 0
	cases[13].wantErr = true
	cases[14].seq = -3
	cases[14].wantErr = true
	cases[15].batch = 0
	cases[15].wantErr = true
	cases[16].rate = math.NaN()
	cases[16].wantErr = true
	cases[17].rate = math.Inf(1)
	cases[17].wantErr = true
	cases[18].mtbf = math.NaN()
	cases[18].wantErr = true
	cases[19].mtbf = math.Inf(1)
	cases[19].wantErr = true
	cases[20].mttr = math.NaN()
	cases[20].wantErr = true
	cases[21].mttr = math.Inf(1)
	cases[21].wantErr = true
	cases[22].straggler = math.NaN()
	cases[22].wantErr = true
	cases[23].ninesTarget = math.NaN()
	cases[23].wantErr = true
	cases[24].sloTTFT, cases[24].sloLatency = 0, 0
	cases[25].sloTTFT = math.NaN()
	cases[25].wantErr = true
	cases[26].sloTTFT = math.Inf(1)
	cases[26].wantErr = true
	cases[27].sloLatency = -5
	cases[27].wantErr = true
	cases[28].sloLatency = math.NaN()
	cases[28].wantErr = true
	cases[29].utilization = math.NaN()
	cases[29].wantErr = true
	cases[30].utilization = 7
	cases[30].wantErr = true
	cases[31].utilization = -0.5
	cases[31].wantErr = true
	cases[32].kvBudgetGB = 16
	cases[33].kvBudgetGB = -1
	cases[33].wantErr = true
	cases[34].kvBudgetGB = math.NaN()
	cases[34].wantErr = true
	cases[35].kvBudgetGB = 1e10
	cases[35].wantErr = true

	for _, c := range cases {
		err := validateFlags(c.modes, c.batch, c.seq, c.minReplicas, c.maxReplicas, c.rate,
			c.requests, c.parallel, c.mtbf, c.mttr, c.straggler, c.ninesTarget,
			c.sloTTFT, c.sloLatency, c.utilization, c.kvBudgetGB)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: got err %v, want error=%v", c.name, err, c.wantErr)
		}
	}
}

// TestValidateOverloadFlags pins the overload-flag rejections: -surge
// without -overload, a brownout ladder with zero rungs (or more than
// the built-in ladder has), and breaker thresholds outside (0,1].
func TestValidateOverloadFlags(t *testing.T) {
	cases := []struct {
		name                   string
		overloadMode, surgeSet bool
		surge                  float64
		brownoutLadder         int
		breakerThreshold       float64
		wantErr                bool
	}{
		{name: "defaults no mode", surge: 4, brownoutLadder: 3},
		{name: "overload defaults", overloadMode: true, surge: 4, brownoutLadder: 3},
		{name: "surge with overload", overloadMode: true, surgeSet: true, surge: 6, brownoutLadder: 3},
		{name: "breaker armed", overloadMode: true, surge: 4, brownoutLadder: 3, breakerThreshold: 0.1},
		{name: "breaker at one", overloadMode: true, surge: 4, brownoutLadder: 3, breakerThreshold: 1},
		{name: "shallow ladder", overloadMode: true, surge: 4, brownoutLadder: 1},
		{name: "surge without overload", surgeSet: true, surge: 6, brownoutLadder: 3, wantErr: true},
		{name: "surge below one", overloadMode: true, surge: 0.5, brownoutLadder: 3, wantErr: true},
		{name: "zero-rung ladder", overloadMode: true, surge: 4, brownoutLadder: 0, wantErr: true},
		{name: "ladder too deep", overloadMode: true, surge: 4, brownoutLadder: 4, wantErr: true},
		{name: "breaker above one", overloadMode: true, surge: 4, brownoutLadder: 3, breakerThreshold: 1.5, wantErr: true},
		{name: "negative breaker", overloadMode: true, surge: 4, brownoutLadder: 3, breakerThreshold: -0.1, wantErr: true},
		{name: "NaN breaker", overloadMode: true, surge: 4, brownoutLadder: 3, breakerThreshold: math.NaN(), wantErr: true},
	}
	for _, c := range cases {
		err := validateOverloadFlags(c.overloadMode, c.surgeSet, c.surge, c.brownoutLadder, c.breakerThreshold)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: got err %v, want error=%v", c.name, err, c.wantErr)
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
