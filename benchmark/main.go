// Command benchmark times the Mugi simulator stack end to end and layer by
// layer. Each of its six workloads is a closed loop of units over the
// public API of the serving, fleet, autoscale, MinuteServe, runner,
// simulator and functional-decoder layers; README.md describes them, and
// BENCHMARK.json at the repository root names the metrics and their
// regression bounds.
//
// One run measures one workload in this process and prints its result as
// the last line of standard output. run.sh builds the command and runs it
// from the repository root, where it reads BENCHMARK.json and
// MINUTESERVE.json:
//
//	bash benchmark/run.sh -workload stream_long -seed 1 -seconds 14 -trace 0
//
// -repeat runs every workload in child processes and collects the samples;
// -compare judges two sample files against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// options are the command-line settings of one invocation.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	scale     float64
	parallel  int
	spans     string
	setupOnly bool
	repeat    int
	jsonOut   string
	compare   bool
}

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run prints last: whether every output check
// passed, how many units ran and failed, and the metrics.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The runner pool takes every CPU the process may use.
	o := options{parallel: runtime.GOMAXPROCS(0)}
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 1, "seed every unit's inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 14, "how long one run measures, in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced run and reports the per-layer metrics")
	fs.Float64Var(&o.scale, "scale", 1, "multiplies the size of every unit")
	fs.StringVar(&o.spans, "spans", "", "with -trace 1: write the spans as Chrome trace-event JSON to this file")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set up and run the warm-up unit, then exit (a run times its set-up this way)")
	fs.IntVar(&o.repeat, "repeat", 0, "run every workload this many times in child processes, alternating their order")
	fs.StringVar(&o.jsonOut, "json", "", "with -repeat: append every sample to this file")
	fs.BoolVar(&o.compare, "compare", false, "judge two sample files: -compare parent.json change.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "benchmark: "+format+"\n", a...)
		return 2
	}
	switch {
	case o.seconds <= 0:
		return usage("-seconds %g must be positive", o.seconds)
	case o.scale <= 0:
		return usage("-scale %g must be positive", o.scale)
	case o.trace != 0 && o.trace != 1:
		return usage("-trace %d must be 0 or 1", o.trace)
	case o.repeat < 0:
		return usage("-repeat %d must not be negative", o.repeat)
	case o.spans != "" && o.trace != 1:
		return usage("-spans needs -trace 1")
	}

	if o.compare {
		if fs.NArg() != 2 {
			return usage("-compare needs two sample files, parent then change")
		}
		worse, err := compareFiles(fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		if worse {
			return 1
		}
		return 0
	}
	if fs.NArg() != 0 {
		return usage("unexpected arguments %q", fs.Args())
	}
	if o.repeat > 0 {
		if o.jsonOut == "" {
			return usage("-repeat needs -json")
		}
		if err := repeat(o, stderr); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	w, ok := lookup(o.workload)
	if !ok {
		return usage("-workload %q is not one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.setupOnly {
		if _, err := setUp(w, o); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
		return 0
	}
	res, digest, err := measure(w, o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: encode result: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "digest %s %s\n%s\n", w.name, digest, line)
	return 0
}
