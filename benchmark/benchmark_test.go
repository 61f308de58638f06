package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestMain lets this test binary stand in for the benchmark binary: a run
// times its set-up by re-executing itself with -setup-only.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-setup-only" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestSmoke runs every workload of BENCHMARK.json at 1% scale, untraced
// and traced, and checks that each run passes its output checks and
// reports exactly the metrics BENCHMARK.json names, with their units. It
// then compares the samples with themselves, which must find nothing
// worse.
func TestSmoke(t *testing.T) {
	t.Chdir("..")
	s, err := readSpec()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(s.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", got, want)
	}
	endToEnd := map[string]string{}
	for _, m := range s.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	perLayerUnits := map[string]string{}
	for _, m := range s.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	if len(perLayerUnits) != len(perLayer) {
		t.Fatalf("BENCHMARK.json names %d per-layer metrics, the benchmark reports %d", len(perLayerUnits), len(perLayer))
	}
	for _, set := range []map[string]string{endToEnd, perLayerUnits} {
		for name, unit := range set {
			if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
				t.Errorf("metric %q unit %q is not a valid name and unit", name, unit)
			}
		}
	}

	file := sampleFile{Seconds: 0.01, Scale: 0.01, Parallel: runtime.GOMAXPROCS(0)}
	for _, w := range s.Workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"-workload", w.Name, "-seed", "1", "-seconds", "0.01", "-scale", "0.01", "-trace", trace}
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d: %s", code, stderr.String())
				}
				smp, err := parseRun(stdout.Bytes())
				if err != nil {
					t.Fatal(err)
				}
				if !smp.Correct || smp.Failed != 0 || smp.Attempted < 1 {
					t.Fatalf("correct %v, %d of %d units failed: %s", smp.Correct, smp.Failed, smp.Attempted, stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayerUnits
				}
				if len(smp.Metrics) != len(want) {
					t.Errorf("reported %d metrics, BENCHMARK.json names %d", len(smp.Metrics), len(want))
				}
				shares := 0.0
				for name, unit := range want {
					m, ok := smp.Metrics[name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", name)
					case m.Unit != unit:
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", name, m.Unit, unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s is %v", name, m.Value)
					case trace == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want positive", name, m.Value)
					}
					if strings.HasSuffix(name, "share") {
						shares += m.Value
					}
				}
				if trace == "1" && math.Abs(shares-1) > 1e-9 {
					t.Errorf("layer shares sum to %v, want 1", shares)
				}
				if trace == "0" {
					smp.Workload, smp.Seed = w.Name, 1
					file.Samples = append(file.Samples, smp)
				}
			})
		}
	}

	path := filepath.Join(t.TempDir(), "samples.json")
	data, err := json.Marshal(file)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	anyWorse, err := compareFiles(path, path, &out)
	if err != nil {
		t.Fatal(err)
	}
	if anyWorse {
		t.Errorf("comparing samples with themselves found a regression:\n%s", out.String())
	}
	if got, want := strings.Count(out.String(), "\n"), 1+len(s.Workloads)*(len(s.EndToEnd)+1); got != want {
		t.Errorf("comparison printed %d lines, want %d:\n%s", got, want, out.String())
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, so spreads the benchmark prints
// match those computed from its samples with Python.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}
