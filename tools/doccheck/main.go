// Command doccheck enforces the repository's documentation floor, the
// ST1000/ST1020-class checks `make lint` runs even where staticcheck is
// not installed:
//
//   - every package in the module (the facade, internal/*, cmd/*,
//     examples/*, tools/*) carries a package-level doc comment;
//   - every exported top-level symbol of the root facade package (mugi.go)
//     carries a doc comment — the facade is the API contributors read
//     first, so its godoc coverage cannot regress;
//   - every exported top-level symbol of internal/autoscale carries a doc
//     comment — the autoscaler is the operator-facing subsystem behind
//     docs/AUTOSCALING.md, so its godoc coverage is held to the same bar;
//   - every exported top-level symbol of internal/serve and internal/fleet
//     carries a doc comment — the serving engine and the fleet planner,
//     which owns the one capacity search, are the APIs the facade
//     re-exports;
//   - every exported top-level symbol of internal/runner and internal/sim
//     carries a doc comment — the worker pool and the cycle simulator
//     under every experiment and serving run, where a symbol kept only
//     for the benchmark harness must say so;
//   - every exported top-level symbol of internal/model, internal/arch and
//     internal/noc carries a doc comment — the workloads, hardware
//     designs and mesh the simulator reads, whose methods the pass calls
//     on every operator and whose receivers say whether it copies them;
//   - every exported top-level symbol of tools/mugivet carries a doc
//     comment — the analyzer framework mirrors x/tools' analysis API
//     (docs/ANALYSIS.md), and an analyzer suite whose own contracts are
//     undocumented would be hard to take seriously.
//
// Vendored fixture modules under testdata/ are skipped, matching the go
// tool's treatment of those directories.
//
// Exit status is nonzero with one line per violation, so the target works
// as a CI gate.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	var violations []string
	report := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}

	dirs := packageDirs(root)
	for _, dir := range dirs {
		files, pkgName, err := parsePackage(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doccheck: %s: %v\n", dir, err)
			os.Exit(2)
		}
		if len(files) == 0 {
			continue
		}
		if !packageHasDoc(files) {
			report("%s: package %s has no package-level doc comment", dir, pkgName)
		}
		// The facade, the serving engine, the fleet planner, the
		// operator-facing autoscaler, the runner, the simulator and its
		// model, arch and noc inputs, and the analyzer suite get the
		// per-symbol pass.
		if (dir == root && pkgName == "mugi") || pkgName == "serve" || pkgName == "fleet" ||
			pkgName == "autoscale" || pkgName == "runner" || pkgName == "sim" ||
			pkgName == "model" || pkgName == "arch" || pkgName == "noc" ||
			strings.HasSuffix(dir, filepath.Join("tools", "mugivet")) {
			checkExportedDocs(files, report)
		}
	}

	if len(violations) > 0 {
		sort.Strings(violations)
		for _, v := range violations {
			fmt.Fprintln(os.Stderr, v)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d undocumented declarations\n", len(violations))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d packages documented; facade, serve, fleet, autoscale, runner, sim, model, arch, noc and mugivet fully covered (godoc only — `make docs-check` also validates docs/*.md fences)\n", len(dirs))
}

// parsePackage parses every non-test Go file of one directory, keyed by
// file path, and returns the (first seen) package name.
func parsePackage(dir string) (map[string]*ast.File, string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, "", err
	}
	files := map[string]*ast.File{}
	pkgName := ""
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, "", err
		}
		files[path] = f
		if pkgName == "" {
			pkgName = f.Name.Name
		}
	}
	return files, pkgName, nil
}

// packageDirs lists every directory under root containing non-test Go
// files, skipping hidden directories.
func packageDirs(root string) []string {
	seen := map[string]bool{}
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name != "." && strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			// Fixture modules (tools/mugivet/testdata/*) are their own
			// modules with their own doc conventions.
			if name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			seen[filepath.Dir(path)] = true
		}
		return nil
	})
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs
}

// packageHasDoc reports whether any file of the package documents the
// package clause.
func packageHasDoc(files map[string]*ast.File) bool {
	for _, f := range files {
		if f.Doc != nil && len(f.Doc.List) > 0 {
			return true
		}
	}
	return false
}

// checkExportedDocs reports every exported top-level declaration without
// a doc comment, in deterministic file-then-position order. A documented
// const/var/type group covers its members — the facade's grouped exports
// ("The studied models.") stay idiomatic.
func checkExportedDocs(files map[string]*ast.File, report func(string, ...any)) {
	paths := make([]string, 0, len(files))
	for p := range files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, fname := range paths {
		for _, decl := range files[fname].Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() && d.Doc == nil {
					report("%s: exported function %s has no doc comment", fname, d.Name.Name)
				}
				if d.Recv != nil && d.Name.IsExported() && d.Doc == nil &&
					receiverExported(d) {
					report("%s: exported method %s has no doc comment", fname, d.Name.Name)
				}
			case *ast.GenDecl:
				if d.Doc != nil {
					continue // the group comment covers every member
				}
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
							report("%s: exported type %s has no doc comment", fname, s.Name.Name)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							if n.IsExported() && s.Doc == nil && s.Comment == nil {
								report("%s: exported %s has no doc comment", fname, n.Name)
							}
						}
					}
				}
			}
		}
	}
}

// receiverExported reports whether a method's receiver type is exported.
func receiverExported(d *ast.FuncDecl) bool {
	if len(d.Recv.List) == 0 {
		return false
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return false
}
