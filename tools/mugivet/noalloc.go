package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/token"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// noalloc: functions annotated `//mugi:noalloc` stay free of heap
// escapes, checked against the compiler's own escape analysis.
//
// The zero-alloc hot paths (VLP GEMM, decode step, scheduler round,
// autoscale tick, the simulator pass) are guarded at runtime by
// AllocsPerRun(0) tests — but those only cover the exact shapes the
// tests drive. This check reads `go build -gcflags=-m` for the packages
// that carry annotations and flags every "escapes to heap" / "moved to
// heap" site inside an annotated function, so an accidental
// fmt.Sprintf, closure capture or interface boxing fails the lint gate
// before it reaches a benchmark.
//
// Two escape classes are deliberately tolerated:
//
//   - arguments to a panic call — validation panics are cold by
//     definition and idiomatically build their message with fmt;
//   - lines waived `//mugi:coldalloc <reason>` — e.g. the nil-scratch
//     warm-up allocation a pooled caller never takes, or an error
//     return's fmt.Errorf. The reason is the reviewable claim that the
//     steady-state path cannot reach the line.

// escapeRE matches one compiler escape diagnostic.
var escapeRE = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (.*(?:escapes to heap|moved to heap).*)$`)

// noallocFunc is one annotated function and the file context needed to
// judge its escape sites.
type noallocFunc struct {
	name       string
	fset       *token.FileSet
	decl       *ast.FuncDecl
	w          waivers
	pkgPath    string
	start, end token.Position
}

// runNoalloc checks every annotated function of the loaded packages,
// rebuilding their packages from dir with escape-analysis output. It
// returns its findings as ordinary diagnostics.
func runNoalloc(dir string, pkgs []*loadedPackage) ([]Diagnostic, error) {
	var funcs []noallocFunc
	pkgSet := map[string]bool{}
	for _, lp := range pkgs {
		for _, f := range lp.Files {
			w := newWaivers(lp.Fset, f)
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				if _, ok := funcDirective(fn, "noalloc"); !ok {
					continue
				}
				funcs = append(funcs, noallocFunc{
					name:    funcName(fn),
					fset:    lp.Fset,
					decl:    fn,
					w:       w,
					pkgPath: lp.PkgPath,
					start:   lp.Fset.Position(fn.Body.Pos()),
					end:     lp.Fset.Position(fn.Body.End()),
				})
				pkgSet[lp.PkgPath] = true
			}
		}
	}
	if len(funcs) == 0 {
		return nil, nil
	}

	paths := make([]string, 0, len(pkgSet))
	for p := range pkgSet {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	escapes, err := escapeSites(dir, paths)
	if err != nil {
		return nil, err
	}

	var diags []Diagnostic
	for _, site := range escapes {
		for i := range funcs {
			fn := &funcs[i]
			if site.file != fn.start.Filename {
				continue
			}
			if site.line < fn.start.Line || site.line > fn.end.Line {
				continue
			}
			if reason, ok := fn.w.at(site.line, "coldalloc"); ok {
				if reason == "" {
					diags = append(diags, Diagnostic{
						Pos:     token.Position{Filename: site.file, Line: site.line, Column: site.col},
						Message: "noalloc: //mugi:coldalloc waiver needs a reason (why can the steady state not reach this line?)",
					})
				}
				break
			}
			if escapeFeedsPanic(fn, site) {
				break
			}
			diags = append(diags, Diagnostic{
				Pos: token.Position{Filename: site.file, Line: site.line, Column: site.col},
				Message: fmt.Sprintf("noalloc: %s is annotated //mugi:noalloc but %s — hoist the allocation or waive a cold line with //mugi:coldalloc <reason>",
					fn.name, site.msg),
			})
			break
		}
	}
	return diags, nil
}

// escapeSite is one parsed compiler escape diagnostic.
type escapeSite struct {
	file      string // absolute path
	line, col int
	msg       string
}

// escapeSites rebuilds the packages with -gcflags=-m and parses the
// escape diagnostics (the go tool replays compiler output from the
// build cache, so warm runs cost no recompilation).
func escapeSites(dir string, pkgPaths []string) ([]escapeSite, error) {
	// The compiler prints positions relative to dir, but the parsed ASTs
	// carry absolute filenames (joined with go list's Dir) — resolve dir
	// so the two sides compare equal.
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	args := append([]string{"build", "-gcflags=-m=1"}, pkgPaths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &out
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go build -gcflags=-m: %v\n%s", err, out.String())
	}
	var sites []escapeSite
	for _, line := range strings.Split(out.String(), "\n") {
		m := escapeRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		file := m[1]
		if !filepath.IsAbs(file) {
			file = filepath.Join(absDir, file)
		}
		ln, _ := strconv.Atoi(m[2])
		col, _ := strconv.Atoi(m[3])
		sites = append(sites, escapeSite{file: file, line: ln, col: col, msg: m[4]})
	}
	return sites, nil
}

// escapeFeedsPanic reports whether the escape site sits inside an
// argument to a builtin panic call — the tolerated cold class.
func escapeFeedsPanic(fn *noallocFunc, site escapeSite) bool {
	// Locate the innermost enclosing panic CallExpr by line/column
	// interval; the compiler's position always falls inside the call's
	// source range.
	tolerated := false
	ast.Inspect(fn.decl.Body, func(n ast.Node) bool {
		if tolerated {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		id, ok := call.Fun.(*ast.Ident)
		if !ok || id.Name != "panic" {
			return true
		}
		start := fn.fset.Position(call.Pos())
		end := fn.fset.Position(call.End())
		if within(site, start, end) {
			tolerated = true
			return false
		}
		return true
	})
	return tolerated
}

// funcName renders a method as (*T).M / T.M and a function as its name.
func funcName(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return fn.Name.Name
	}
	t := fn.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		if id, ok := star.X.(*ast.Ident); ok {
			return "(*" + id.Name + ")." + fn.Name.Name
		}
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name + "." + fn.Name.Name
	}
	return fn.Name.Name
}

// within reports whether the site lies inside [start, end].
func within(site escapeSite, start, end token.Position) bool {
	afterStart := site.line > start.Line || (site.line == start.Line && site.col >= start.Column)
	beforeEnd := site.line < end.Line || (site.line == end.Line && site.col <= end.Column)
	return afterStart && beforeEnd
}
