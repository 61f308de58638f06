package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// specFile is the benchmark definition, read from the repository root the
// benchmark runs in.
const specFile = "BENCHMARK.json"

// spec is the part of the benchmark definition the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readSpec() (spec, error) {
	var s spec
	data, err := os.ReadFile(specFile)
	if err != nil {
		return s, fmt.Errorf("read benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &s); err != nil {
		return s, fmt.Errorf("parse %s: %w", specFile, err)
	}
	return s, nil
}

// sample is one end-to-end run of one workload, as -repeat records it.
type sample struct {
	Workload string `json:"workload"`
	Repeat   int    `json:"repeat"`
	Seed     int64  `json:"seed"`
	Digest   string `json:"digest"`
	result
}

// sampleFile holds the samples of one or more -repeat invocations made
// with the same settings.
type sampleFile struct {
	Seconds  float64  `json:"seconds"`
	Scale    float64  `json:"scale"`
	Parallel int      `json:"parallel"`
	Samples  []sample `json:"samples"`
}

func readSamples(path string) (sampleFile, error) {
	var f sampleFile
	data, err := os.ReadFile(path)
	if err != nil {
		return f, fmt.Errorf("read samples: %w", err)
	}
	if err := json.Unmarshal(data, &f); err != nil {
		return f, fmt.Errorf("parse samples %s: %w", path, err)
	}
	return f, nil
}

// repeat runs every workload o.repeat times, each run in a fresh child
// process of this binary and one at a time, alternating the workload order
// from one repeat to the next. Samples are appended to o.jsonOut after
// each run, so calling -repeat 1 alternately from two checkouts builds
// alternating parent/change pairs.
func repeat(o options, log io.Writer) error {
	s, err := readSpec()
	if err != nil {
		return err
	}
	names := make([]string, 0, len(s.Workloads))
	for _, w := range s.Workloads {
		names = append(names, w.Name)
	}
	if o.workload != "" {
		names = []string{o.workload}
	}
	file := sampleFile{Seconds: o.seconds, Scale: o.scale, Parallel: o.parallel}
	if old, err := readSamples(o.jsonOut); err == nil {
		if old.Seconds != o.seconds || old.Scale != o.scale || old.Parallel != o.parallel {
			return fmt.Errorf("%s holds samples taken with other settings", o.jsonOut)
		}
		file = old
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	first := 0
	for _, smp := range file.Samples {
		first = max(first, smp.Repeat+1)
	}
	exe, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locate own binary: %w", err)
	}
	for r := first; r < first+o.repeat; r++ {
		order := slices.Clone(names)
		if r%2 == 1 {
			slices.Reverse(order)
		}
		for _, name := range order {
			cmd := exec.Command(exe, "-workload", name,
				"-seed", strconv.FormatInt(o.seed, 10),
				"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
				"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64))
			cmd.Stderr = log
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("run %s: %w", name, err)
			}
			smp, err := parseRun(out)
			if err != nil {
				return fmt.Errorf("run %s: %w", name, err)
			}
			smp.Workload, smp.Repeat, smp.Seed = name, r, o.seed
			file.Samples = append(file.Samples, smp)
			data, err := json.MarshalIndent(file, "", "  ")
			if err != nil {
				return fmt.Errorf("encode samples: %w", err)
			}
			if err := os.WriteFile(o.jsonOut, append(data, '\n'), 0o644); err != nil {
				return fmt.Errorf("write samples: %w", err)
			}
		}
	}
	return nil
}

// parseRun reads a run's standard output: the digest line, then the result
// as the last line.
func parseRun(out []byte) (sample, error) {
	var smp sample
	var last string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		if f := strings.Fields(line); len(f) == 3 && f[0] == "digest" {
			smp.Digest = f[2]
		}
		last = line
	}
	if err := json.Unmarshal([]byte(last), &smp.result); err != nil {
		return smp, fmt.Errorf("parse result line %q: %w", last, err)
	}
	return smp, nil
}

// Verdicts of a comparison.
const (
	improved   = "improved"
	noWorse    = "no worse"
	worse      = "worse"
	unresolved = "unresolved"
)

// Pairing rule for a claimed improvement.
const (
	minPairs    = 10
	minWinShare = 0.9
)

// judge compares the change's samples c with the parent's p, paired by
// index. A change improved a metric when at least minPairs pairs ran, it
// won at least minWinShare of them, and its median beats the parent's by
// more than the parent's interquartile range. It is worse when its median
// is worse by more than bound (a share of the parent's median). When the
// parent's own spread exceeds the bound, anything short of the change
// beating every parent run is unresolved.
func judge(p, c []float64, higherBetter bool, bound float64) (verdict string, wins, pairs int) {
	pairs = min(len(p), len(c))
	if pairs == 0 {
		return unresolved, 0, 0
	}
	sign := 1.0
	if !higherBetter {
		sign = -1
	}
	for i := 0; i < pairs; i++ {
		if sign*(c[i]-p[i]) > 0 {
			wins++
		}
	}
	mp := median(p)
	q1, q3 := quartiles(p)
	gap := sign * (median(c) - mp)
	if pairs >= minPairs && float64(wins) >= minWinShare*float64(pairs) && gap > q3-q1 {
		return improved, wins, pairs
	}
	worstChange := slices.Min(c)
	bestParent := slices.Max(p)
	if !higherBetter {
		worstChange, bestParent = -slices.Max(c), -slices.Min(p)
	}
	if (q3-q1) > bound*math.Abs(mp) && !(worstChange > bestParent) {
		return unresolved, wins, pairs
	}
	if -gap > bound*math.Abs(mp) {
		return worse, wins, pairs
	}
	return noWorse, wins, pairs
}

// compareFiles prints one verdict per (end-to-end metric, workload) for
// the change's samples against the parent's, plus failed_ratio, which
// counts any rise as worse, and whether the simulated results (digests)
// match. It reports whether any verdict is worse.
func compareFiles(parentPath, changePath string, out io.Writer) (bool, error) {
	s, err := readSpec()
	if err != nil {
		return false, err
	}
	parent, err := readSamples(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readSamples(changePath)
	if err != nil {
		return false, err
	}
	if parent.Seconds != change.Seconds || parent.Scale != change.Scale || parent.Parallel != change.Parallel {
		return false, fmt.Errorf("the two files were measured with different settings")
	}
	anyWorse := false
	fmt.Fprintf(out, "%-14s %-14s %36s %36s %6s %5s  %s\n", "metric", "workload", "parent median [q1, q3]", "change median [q1, q3]", "pairs", "wins", "verdict")
	for _, w := range s.Workloads {
		ps, cs := samplesOf(parent, w.Name), samplesOf(change, w.Name)
		if len(ps) == 0 || len(cs) == 0 {
			continue
		}
		for _, m := range s.EndToEnd {
			p, c := values(ps, m.Name), values(cs, m.Name)
			if len(p) == 0 || len(c) == 0 {
				return false, fmt.Errorf("%s: no %s samples", w.Name, m.Name)
			}
			v, wins, pairs := judge(p, c, m.Better == "higher", m.Bound)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(out, "%-14s %-14s %36s %36s %6d %5d  %s\n", m.Name, w.Name, summary(p), summary(c), pairs, wins, v)
		}
		pf, cf := failedRatio(ps), failedRatio(cs)
		v := noWorse
		if cf > pf {
			v, anyWorse = worse, true
		}
		fmt.Fprintf(out, "%-14s %-14s %36.4g %36.4g %6d %5s  %s\n", "failed_ratio", w.Name, pf, cf, min(len(ps), len(cs)), "-", v)
		if ps[0].Digest != cs[0].Digest || ps[0].Seed != cs[0].Seed {
			fmt.Fprintf(out, "%-14s %-14s simulated results differ (seed %d digest %.12s vs seed %d digest %.12s)\n",
				"digest", w.Name, ps[0].Seed, ps[0].Digest, cs[0].Seed, cs[0].Digest)
		}
	}
	return anyWorse, nil
}

func samplesOf(f sampleFile, workload string) []sample {
	var out []sample
	for _, s := range f.Samples {
		if s.Workload == workload {
			out = append(out, s)
		}
	}
	return out
}

func values(ss []sample, name string) []float64 {
	var out []float64
	for _, s := range ss {
		if m, ok := s.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

func failedRatio(ss []sample) float64 {
	failed, attempted := 0, 0
	for _, s := range ss {
		failed += s.Failed
		attempted += s.Attempted
	}
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

func summary(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}
