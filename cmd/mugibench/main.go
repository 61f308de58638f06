// Command mugibench regenerates the tables and figures of the paper's
// evaluation section through the concurrent sweep runner.
//
// Usage:
//
//	mugibench -exp all              # every artifact in paper order
//	mugibench -exp all -parallel 8  # same, fanned over 8 workers
//	mugibench -exp tab3             # one artifact
//	mugibench -list                 # available experiment ids
//	mugibench -minuteserve                          # ranked leaderboard
//	mugibench -minuteserve -report MINUTESERVE.json # + signed artifact
//	mugibench -minuteserve -entry mugi:4x4          # score one entry
//	mugibench -minuteserve -verify MINUTESERVE.json # check a signature
//	mugibench -minuteserve -diff old.json new.json  # per-axis comparison
//	mugibench -minuteserve -check MINUTESERVE.json  # CI golden gate
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"mugi"
	"mugi/internal/cliusage"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (see -list) or 'all'")
	list := flag.Bool("list", false, "list available experiments")
	outDir := flag.String("out", "", "also write each artifact to <dir>/<id>.txt")
	parallel := flag.Int("parallel", 0, "worker pool size (0 = GOMAXPROCS, 1 = serial)")
	minuteServe := flag.Bool("minuteserve", false, "run the MinuteServe price-performance benchmark")
	msEntry := flag.String("entry", "", "score one entry: kind[@rows]:RxC[:replicas][:profile] (e.g. mugi:4x4, mugi@128:2x2:2:rag)")
	msReport := flag.String("report", "", "write the signed artifact (board, or entry report with -entry) to this path")
	msVerify := flag.String("verify", "", "verify a signed artifact file and exit")
	msDiff := flag.String("diff", "", "diff this artifact against a second artifact path argument")
	msCheck := flag.String("check", "", "regenerate the leaderboard and require byte-equality with this committed golden")
	flag.Usage = cliusage.Grouped(flag.CommandLine,
		"mugibench — regenerate the paper's evaluation artifacts.\nUsage: mugibench [mode flag] [flags]",
		[]cliusage.Group{
			{Title: "artifact regeneration (default mode)", Flags: []string{"exp", "list", "out"}},
			{Title: "MinuteServe benchmark (-minuteserve)", Flags: []string{"minuteserve", "entry", "report", "verify", "diff", "check"}},
			{Title: "shared"},
		})
	flag.Parse()
	mugi.SetParallelism(*parallel)

	if *minuteServe {
		if err := runMinuteServe(minuteServeFlags{
			entry: *msEntry, report: *msReport, verify: *msVerify,
			diff: *msDiff, diffB: flag.Arg(0), check: *msCheck,
		}); err != nil {
			fatal(err)
		}
		return
	}

	if *list {
		for _, e := range mugi.Experiments() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}
	var results []mugi.ExperimentResult
	if *exp == "all" {
		results = mugi.RunAll()
	} else {
		var err error
		results, err = mugi.RunExperiments([]string{*exp})
		if err != nil {
			fatal(err)
		}
	}
	for _, res := range results {
		fmt.Println(res.Text)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fatal(err)
			}
			path := filepath.Join(*outDir, res.ID+".txt")
			if err := os.WriteFile(path, []byte(res.Text), 0o644); err != nil {
				fatal(err)
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mugibench:", err)
	os.Exit(1)
}
