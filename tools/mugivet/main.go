// Command mugivet is the repository's contract linter: a suite of four
// repo-specific static analyzers that prove, at lint time, the
// invariants the stack otherwise only samples with runtime tests
// (docs/ANALYSIS.md):
//
//   - detmap: no unordered map iteration inside the deterministic
//     packages (waive order-independent loops with //mugi:orderless);
//   - noclock: no time.Now/Since/Until, os.Getenv, or unseeded
//     math/rand globals in those packages;
//   - exhauststate: every switch over the power-state and
//     operator-class enums covers all members or panics in default;
//   - noalloc: //mugi:noalloc functions are free of compiler-reported
//     heap escapes (checked against `go build -gcflags=-m`).
//
// Usage:
//
//	mugivet [-analyzers detmap,noclock,exhauststate,noalloc] [packages]
//
// The package arguments default to ./... and accept any go-list
// pattern. Exit status 1 means findings, 2 means the tool itself
// failed. The API of the in-process framework mirrors
// golang.org/x/tools/go/analysis so each analyzer ports to a standard
// vet pass verbatim; the driver is self-contained on the standard
// library because the repo builds hermetically.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
)

func main() {
	analyzersFlag := flag.String("analyzers", "detmap,noclock,exhauststate,noalloc",
		"comma-separated subset of analyzers to run")
	listFlag := flag.Bool("list", false, "print the analyzers and their contracts, then exit")
	flag.Parse()

	available := []*Analyzer{
		newDetmap(inDeterministicScope),
		newNoclock(inDeterministicScope),
		newExhauststate(),
	}
	if *listFlag {
		for _, a := range available {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		fmt.Printf("%-13s %s\n", "noalloc", "//mugi:noalloc functions have no heap escapes (go build -gcflags=-m)")
		return
	}

	wantNoalloc := false
	var selected []*Analyzer
	for _, name := range strings.Split(*analyzersFlag, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if name == "noalloc" {
			wantNoalloc = true
			continue
		}
		found := false
		for _, a := range available {
			if a.Name == name {
				selected = append(selected, a)
				found = true
			}
		}
		if !found {
			fmt.Fprintf(os.Stderr, "mugivet: unknown analyzer %q (run -list)\n", name)
			os.Exit(2)
		}
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	diags, err := analyze(".", patterns, selected, wantNoalloc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mugivet: %v\n", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "mugivet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

// analyze loads the patterns from dir and runs the selected analyzers
// plus, when requested, the noalloc escape check. It is the single entry
// point the CLI, the fixture harness and the tree-wide clean test share.
func analyze(dir string, patterns []string, analyzers []*Analyzer, noalloc bool) ([]Diagnostic, error) {
	pkgs, err := loadPackages(dir, patterns)
	if err != nil {
		return nil, err
	}
	diags := runAnalyzers(analyzers, pkgs)
	if noalloc {
		nd, err := runNoalloc(dir, pkgs)
		if err != nil {
			return nil, err
		}
		diags = append(diags, nd...)
		sortDiagnostics(diags)
	}
	return diags, nil
}
