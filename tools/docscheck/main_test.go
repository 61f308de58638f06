package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestExtractFences(t *testing.T) {
	md := "intro\n```go\nx := 1\n```\ntext\n```sh\nmake build\n```\n"
	fences := extractFences(md)
	if len(fences) != 2 {
		t.Fatalf("got %d fences, want 2", len(fences))
	}
	if fences[0].lang != "go" || !strings.Contains(fences[0].body, "x := 1") {
		t.Errorf("go fence: %+v", fences[0])
	}
	if fences[1].lang != "sh" || fences[1].body != "make build" {
		t.Errorf("sh fence: %+v", fences[1])
	}
}

func TestCheckGoFence(t *testing.T) {
	var got []string
	report := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }
	checkGoFence("doc.md", fence{lang: "go", body: "x := mugi.RunAll()"}, report)
	checkGoFence("doc.md", fence{lang: "go", body: "package p\nfunc F() {}"}, report)
	if len(got) != 0 {
		t.Fatalf("valid fences flagged: %v", got)
	}
	checkGoFence("doc.md", fence{lang: "go", body: "x := := broken"}, report)
	if len(got) != 1 {
		t.Fatalf("broken fence not flagged: %v", got)
	}
}

func TestCheckShellFence(t *testing.T) {
	flags := map[string]map[string]bool{
		"mugisim": {"design": true, "fleet": true, "h": true},
	}
	targets := map[string]bool{"build": true}
	var got []string
	report := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }

	ok := fence{body: "make build\ngo run ./cmd/mugisim -design mugi  # comment\ngo run ./cmd/mugisim -fleet \\\n    -design mugi"}
	checkShellFence("../..", "doc.md", ok, flags, targets, report)
	if len(got) != 0 {
		t.Fatalf("valid shell fence flagged: %v", got)
	}

	bad := fence{body: "make deploy\ngo run ./cmd/nonexistent\ngo run ./cmd/mugisim -warp 9"}
	checkShellFence("../..", "doc.md", bad, flags, targets, report)
	want := []string{`make target "deploy"`, "does not exist", "no flag -warp"}
	if len(got) != len(want) {
		t.Fatalf("violations %v, want %d", got, len(want))
	}
	for i, w := range want {
		if !strings.Contains(got[i], w) {
			t.Errorf("violation %d = %q, want mention of %q", i, got[i], w)
		}
	}
}

func TestCommandFlagsReadsRealCommands(t *testing.T) {
	flags, err := commandFlags("../..")
	if err != nil {
		t.Fatal(err)
	}
	for cmd, want := range map[string]string{
		"mugisim":     "fleet",
		"mugibench":   "minuteserve",
		"mugiprofile": "family",
	} {
		if !flags[cmd][want] {
			t.Errorf("%s: flag -%s not discovered (got %v)", cmd, want, flags[cmd])
		}
	}
	// mugisim's golden test registers -capture on the test binary.
	if flags["mugisim"]["capture"] {
		t.Error("a test file's flag was read as mugisim's")
	}
}

// TestDeclReForms covers each registration form declRe reads, on any
// receiver, and calls that register no flag.
func TestDeclReForms(t *testing.T) {
	for src, want := range map[string]string{
		`flag.String("design", "mugi", "design")`:            "design",
		`fs.Bool("serve", false, "serve mode")`:              "serve",
		`fs.StringVar(&o.traceKind, "trace", "poisson", "")`: "trace",
		`set.Float64Var(&cfg.rate, "rate", 0.5, "")`:         "rate",
		`flag.IntVar(&rows,"rows", 256, "")`:                 "rows",
		`fs.Int64Var(&o.seed, "seed", 1, "")`:                "seed",
	} {
		m := declRe.FindStringSubmatch(src)
		if m == nil || m[1] != want {
			t.Errorf("%s: got %v, want flag %q", src, m, want)
		}
	}
	for _, src := range []string{
		`fmt.Println("design")`,
		`fs.Lookup("serve")`,
		`strings.Index(s, "trace")`,
		`fs.StringVar(&o.x, name, "", "")`,
	} {
		if m := declRe.FindStringSubmatch(src); m != nil {
			t.Errorf("%s: read as flag %q", src, m[1])
		}
	}
}

// TestRepositoryDocsAreClean is the live gate: the committed docs must
// verify against the committed tree.
func TestRepositoryDocsAreClean(t *testing.T) {
	root := "../.."
	docs, err := docFiles(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(docs) < 3 {
		t.Fatalf("expected README + docs/*.md, found %v", docs)
	}
	flags, err := commandFlags(root)
	if err != nil {
		t.Fatal(err)
	}
	targets, err := makeTargets(root + "/Makefile")
	if err != nil {
		t.Fatal(err)
	}
	report := func(format string, args ...any) {
		t.Errorf(format, args...)
	}
	for _, doc := range docs {
		data, err := osReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range extractFences(data) {
			switch f.lang {
			case "go":
				checkGoFence(doc, f, report)
			case "sh", "bash", "":
				checkShellFence(root, doc, f, flags, targets, report)
			}
		}
		checkLinks(root, doc, data, report)
	}
}

// osReadFile adapts os.ReadFile to string for the test.
func osReadFile(path string) (string, error) {
	data, err := os.ReadFile(path)
	return string(data), err
}

// TestCheckGoFenceSpellings covers the three accepted snippet forms: a
// full file, package-less top-level declarations, and bare statements.
func TestCheckGoFenceSpellings(t *testing.T) {
	var got []string
	report := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }
	for _, body := range []string{
		"package p\n\nfunc F() {}",
		"func Name() *Report {\n\treturn nil\n}",
		"results := mugi.RunAll()",
	} {
		checkGoFence("doc.md", fence{lang: "go", body: body}, report)
	}
	if len(got) != 0 {
		t.Fatalf("valid spellings flagged: %v", got)
	}
}

// TestCheckShellFenceAttribution covers the scanner's precision: GNU
// double-dash spellings are caught, and a wrapper's flags before the
// command token are never misattributed to it.
func TestCheckShellFenceAttribution(t *testing.T) {
	flags := map[string]map[string]bool{"mugisim": {"serve": true, "h": true}}
	targets := map[string]bool{}
	var got []string
	report := func(format string, args ...any) { got = append(got, fmt.Sprintf(format, args...)) }

	checkShellFence("../..", "doc.md",
		fence{body: "go run -race ./cmd/mugisim -serve"}, flags, targets, report)
	if len(got) != 0 {
		t.Fatalf("wrapper flag misattributed: %v", got)
	}
	checkShellFence("../..", "doc.md",
		fence{body: "go run ./cmd/mugisim --capactiy"}, flags, targets, report)
	if len(got) != 1 || !strings.Contains(got[0], "capactiy") {
		t.Fatalf("double-dash typo not caught: %v", got)
	}
}
