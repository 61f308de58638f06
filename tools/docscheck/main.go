// Command docscheck keeps the Markdown documentation truthful: it
// extracts every fenced code block from README.md and docs/*.md and
// verifies the claims a reader would copy-paste:
//
//   - ```go fences must parse (as a file, or as statements wrapped in a
//     function) — pseudo-Go rots silently otherwise;
//   - in ```sh fences, every `make <target>` must name a target the
//     Makefile defines, every `go run ./<path>` must point at a package
//     directory that exists, and every flag passed to the repository's
//     own commands (mugisim, mugibench, mugiprofile) must be a flag the
//     command actually registers;
//   - every relative Markdown link must resolve to a file in the tree.
//
// `make docs-check` runs this plus doccheck; CI gates on both.
package main

import (
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	docs, err := docFiles(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	flags, err := commandFlags(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}
	targets, err := makeTargets(filepath.Join(root, "Makefile"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(2)
	}

	var violations []string
	report := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	fences := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(2)
		}
		text := string(data)
		for _, f := range extractFences(text) {
			fences++
			switch f.lang {
			case "go":
				checkGoFence(doc, f, report)
			case "sh", "bash", "":
				checkShellFence(root, doc, f, flags, targets, report)
			}
		}
		checkLinks(root, doc, text, report)
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d stale documentation claims\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d docs, %d code fences verified\n", len(docs), fences)
}

// docFiles lists README.md plus docs/*.md.
func docFiles(root string) ([]string, error) {
	out := []string{filepath.Join(root, "README.md")}
	more, err := filepath.Glob(filepath.Join(root, "docs", "*.md"))
	if err != nil {
		return nil, err
	}
	out = append(out, more...)
	sort.Strings(out)
	return out, nil
}

// fence is one fenced code block.
type fence struct {
	lang string
	line int // 1-based line of the opening fence
	body string
}

// extractFences pulls every ``` block out of a Markdown document.
func extractFences(text string) []fence {
	var out []fence
	lines := strings.Split(text, "\n")
	for i := 0; i < len(lines); i++ {
		l := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(l, "```") {
			continue
		}
		lang := strings.TrimPrefix(l, "```")
		var body []string
		for i++; i < len(lines); i++ {
			if strings.HasPrefix(strings.TrimSpace(lines[i]), "```") {
				break
			}
			body = append(body, lines[i])
		}
		out = append(out, fence{lang: lang, line: i - len(body), body: strings.Join(body, "\n")})
	}
	return out
}

// checkGoFence requires the snippet to parse as a Go file or as
// statements. Three spellings are accepted, tried in order: a complete
// file, top-level declarations without a package clause (how the docs
// quote generator functions), and bare statements (how they quote
// facade calls).
func checkGoFence(doc string, f fence, report func(string, ...any)) {
	attempts := []string{
		f.body,
		"package doc\n" + f.body,
		"package doc\nfunc _() {\n" + f.body + "\n}\n",
	}
	var firstErr error
	for _, src := range attempts {
		_, err := parser.ParseFile(token.NewFileSet(), doc, src, 0)
		if err == nil {
			return
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	report("%s:%d: go fence does not parse: %v", doc, f.line, firstErr)
}

// flagRe matches a flag token on a shell line, in either the single- or
// double-dash spelling Go's flag package accepts.
var flagRe = regexp.MustCompile(`(^|\s)--?([a-z][a-z0-9-]*)`)

// checkShellFence validates make targets, go run paths, and command
// flags in one shell fence.
func checkShellFence(root, doc string, f fence, flags map[string]map[string]bool,
	targets map[string]bool, report func(string, ...any)) {
	// Join backslash continuations so a wrapped command scans as one line.
	body := strings.ReplaceAll(f.body, "\\\n", " ")
	for _, line := range strings.Split(body, "\n") {
		// Strip trailing comments.
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "make" {
			for _, t := range fields[1:] {
				if strings.HasPrefix(t, "-") {
					continue
				}
				if !targets[t] {
					report("%s:%d: make target %q not in Makefile", doc, f.line, t)
				}
			}
			continue
		}
		// go run ./path — the package directory must exist.
		if fields[0] == "go" && len(fields) > 2 && fields[1] == "run" {
			if p := fields[2]; strings.HasPrefix(p, "./") {
				if st, err := os.Stat(filepath.Join(root, p)); err != nil || !st.IsDir() {
					report("%s:%d: go run path %s does not exist", doc, f.line, p)
				}
			}
		}
		// Flags of the repository's own commands. Only the text *after*
		// the command token is scanned, so flags of a wrapper (e.g.
		// `go run -race ./cmd/mugisim -serve`) are never misattributed.
		for cmd, known := range flags {
			rest := ""
			if i := strings.Index(line, "/"+cmd+" "); i >= 0 {
				rest = line[i+len(cmd)+2:]
			} else if strings.HasPrefix(line, cmd+" ") {
				rest = line[len(cmd)+1:]
			} else {
				continue
			}
			for _, m := range flagRe.FindAllStringSubmatch(rest, -1) {
				if !known[m[2]] {
					report("%s:%d: %s has no flag -%s", doc, f.line, cmd, m[2])
				}
			}
		}
	}
}

// declRe matches a flag registration on any receiver: the package
// function form flag.String("name", ...), a flag set's fs.Bool("name",
// ...), and the Var forms fs.StringVar(&o.x, "name", ...).
var declRe = regexp.MustCompile(`\w+\.(?:String|Bool|Int|Int64|Uint|Uint64|Float64|Duration)(?:\(|Var\([^,"]+,\s*)"([^"]+)"`)

// commandFlags reads each cmd/<name>/*.go source, tests aside, and
// collects the flags it registers (plus the flag package's built-in
// -h/-help).
func commandFlags(root string) (map[string]map[string]bool, error) {
	out := map[string]map[string]bool{}
	cmds, err := filepath.Glob(filepath.Join(root, "cmd", "*"))
	if err != nil {
		return nil, err
	}
	for _, dir := range cmds {
		name := filepath.Base(dir)
		known := map[string]bool{"h": true, "help": true}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			return nil, err
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue // a test binary's flags are not the command's
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			for _, m := range declRe.FindAllStringSubmatch(string(data), -1) {
				known[m[1]] = true
			}
		}
		out[name] = known
	}
	return out, nil
}

// targetRe matches a Makefile rule head.
var targetRe = regexp.MustCompile(`(?m)^([A-Za-z][A-Za-z0-9_-]*):`)

// makeTargets collects the Makefile's rule names.
func makeTargets(path string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, m := range targetRe.FindAllStringSubmatch(string(data), -1) {
		out[m[1]] = true
	}
	return out, nil
}

// linkRe matches Markdown links; the path group excludes anchors.
var linkRe = regexp.MustCompile(`\]\(([^)#]+)(?:#[^)]*)?\)`)

// checkLinks verifies Markdown links resolve on disk: doc-relative
// paths against the document's directory, root-absolute paths (leading
// "/") against the repository root.
func checkLinks(root, doc, text string, report func(string, ...any)) {
	for _, m := range linkRe.FindAllStringSubmatch(text, -1) {
		target := m[1]
		if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") {
			continue
		}
		resolved := filepath.Join(filepath.Dir(doc), target)
		if strings.HasPrefix(target, "/") {
			resolved = filepath.Join(root, target)
		}
		if _, err := os.Stat(resolved); err != nil {
			report("%s: broken link %s", doc, target)
		}
	}
}
