package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness, shaped like x/tools' analysistest: each
// testdata/<analyzer> directory is a standalone module (so the parent
// ./... patterns never see it), and every line that should be flagged
// carries a "// want `regex`" comment. The harness runs the analyzer
// over the fixture and requires a one-to-one match between diagnostics
// and want comments.

// allScope lets the scoped analyzers (detmap, noclock) see fixture
// packages, which live outside the real deterministic import paths.
func allScope(string) bool { return true }

func TestFixtures(t *testing.T) {
	cases := []struct {
		dir      string
		analyzer *Analyzer // nil for the noalloc escape check
		noalloc  bool
	}{
		{dir: "detmap", analyzer: newDetmap(allScope)},
		{dir: "noclock", analyzer: newNoclock(allScope)},
		{dir: "exhauststate", analyzer: newExhauststate()},
		{dir: "noalloc", noalloc: true},
	}
	for _, tc := range cases {
		t.Run(tc.dir, func(t *testing.T) {
			dir := filepath.Join("testdata", tc.dir)
			var analyzers []*Analyzer
			if tc.analyzer != nil {
				analyzers = append(analyzers, tc.analyzer)
			}
			diags, err := analyze(dir, []string{"./..."}, analyzers, tc.noalloc)
			if err != nil {
				t.Fatalf("analyze %s: %v", dir, err)
			}
			checkWants(t, dir, diags)
		})
	}
}

// wantRE extracts expected-diagnostic regexes from a fixture source
// line; several backquoted patterns may follow one "// want".
var wantRE = regexp.MustCompile("// want ((?:`[^`]*`\\s*)+)")

var wantPatternRE = regexp.MustCompile("`([^`]*)`")

// checkWants matches diagnostics against the fixture's want comments,
// one-to-one per line.
func checkWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	absDir, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := map[string][]*regexp.Regexp{} // "file:line" -> unmatched patterns
	err = filepath.Walk(absDir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", path, i+1)
			for _, pm := range wantPatternRE.FindAllStringSubmatch(m[1], -1) {
				re, err := regexp.Compile(pm[1])
				if err != nil {
					return fmt.Errorf("%s: bad want pattern %q: %v", key, pm[1], err)
				}
				wants[key] = append(wants[key], re)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		matched := false
		for i, re := range wants[key] {
			if re.MatchString(d.Message) {
				wants[key] = append(wants[key][:i], wants[key][i+1:]...)
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected diagnostic at %s: %s", key, d.Message)
		}
	}
	for key, res := range wants {
		for _, re := range res {
			t.Errorf("no diagnostic at %s matching %q", key, re)
		}
	}
}
