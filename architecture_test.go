package repro

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// importNames maps the names a file binds to its imports onto the import
// paths, so an aliased import resolves like a plain one.
func importNames(f *ast.File) map[string]string {
	names := map[string]string{}
	for _, spec := range f.Imports {
		path, _ := strconv.Unquote(spec.Path.Value)
		name := path[strings.LastIndex(path, "/")+1:]
		if spec.Name != nil {
			name = spec.Name.Name
		}
		names[name] = path
	}
	return names
}

// dispatchGate: a frontend (cmd/, internal/service) runs a job through
// engine.Run. It names no runtime entry point (stream.Solve, cluster.Solve)
// and imports no round driver, through any import alias. Batch mode is the
// stream pipeline over the materialized graph, so neither a frontend nor the
// engine nor the round driver calls the materialized reference
// (Descriptor.Batch, BatchSummaries): it is not a runtime.
func dispatchGate(path string, f *ast.File) []string {
	frontend := strings.HasPrefix(path, "cmd/") || strings.HasPrefix(path, "internal/service/")
	if !frontend && !strings.HasPrefix(path, "internal/engine/") && !strings.HasPrefix(path, "internal/rounds/") {
		return nil
	}
	names := importNames(f)
	var bad []string
	for _, spec := range f.Imports {
		if p, _ := strconv.Unquote(spec.Path.Value); frontend && p == "repro/internal/rounds" {
			bad = append(bad, path+": imports repro/internal/rounds")
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "BatchSummaries" {
			bad = append(bad, path+": names BatchSummaries")
		}
		if call, ok := n.(*ast.CallExpr); ok {
			// A method call, not a package function: the materialized
			// reference.
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Batch" {
				if x, ok := sel.X.(*ast.Ident); !ok || names[x.Name] == "" {
					bad = append(bad, path+": calls a .Batch method")
				}
			}
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || !frontend {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok && sel.Sel.Name == "Solve" {
			if pkg := names[x.Name]; pkg == "repro/internal/stream" || pkg == "repro/internal/cluster" {
				bad = append(bad, path+": names "+pkg+".Solve")
			}
		}
		return true
	})
	return bad
}

// isPkgSelector reports whether e is name selected from the package a file
// imports as pkg, under whatever name it binds.
func isPkgSelector(e ast.Expr, names map[string]string, pkg, name string) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != name {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && names[x.Name] == pkg
}

// oneRouter: stream.Route, which stream.Pass runs, is the only loop that
// sends edges to machines. Hashing an edge to a machine anywhere else is a
// second router that can drift from it.
func oneRouter(path string, f *ast.File) []string {
	if strings.HasPrefix(path, "internal/stream/") || strings.HasPrefix(path, "internal/partition/") {
		return nil
	}
	names := importNames(f)
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok && isPkgSelector(e, names, "repro/internal/partition", "HashAssign") {
			bad = append(bad, path+": names partition.HashAssign")
		}
		return true
	})
	return bad
}

// oneLoop: stream.Pass (internal/stream/pass.go) is the only place that
// runs a set of machines, and it makes their batch queues. A second maker
// of a chan []graph.Edge is a second pass that can drift from it.
func oneLoop(path string, f *ast.File) []string {
	if path == "internal/stream/pass.go" {
		return nil
	}
	names := importNames(f)
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "make" {
			return true
		}
		ch, ok := call.Args[0].(*ast.ChanType)
		if !ok {
			return true
		}
		if arr, ok := ch.Value.(*ast.ArrayType); ok && arr.Len == nil {
			edge := isPkgSelector(arr.Elt, names, "repro/internal/graph", "Edge")
			if id, ok := arr.Elt.(*ast.Ident); ok && id.Name == "Edge" && strings.HasPrefix(path, "internal/graph/") {
				edge = true
			}
			if edge {
				bad = append(bad, path+": makes a chan []graph.Edge")
			}
		}
		return true
	})
	return bad
}

// oneLocalFleet: -cluster local serves its workers in process
// (cluster.ServeLoopback); a program that starts processes is a second way
// to stand up a fleet.
func oneLocalFleet(path string, f *ast.File) []string {
	for _, spec := range f.Imports {
		if p, _ := strconv.Unquote(spec.Path.Value); p == "os/exec" {
			return []string{path + ": imports os/exec"}
		}
	}
	return nil
}

// reachable returns the packages imports reaches from pkg, pkg excluded.
func reachable(imports map[string][]string, pkg string) []string {
	seen := map[string]bool{pkg: true}
	var out []string
	for queue := []string{pkg}; len(queue) > 0; queue = queue[1:] {
		for _, dep := range imports[queue[0]] {
			if !seen[dep] {
				seen[dep] = true
				out = append(out, dep)
				queue = append(queue, dep)
			}
		}
	}
	return out
}

// roundsKnowsNoRuntime: the round driver knows the schedule, not the
// runtime; the engine hands it a round function, so internal/rounds depends
// on neither the cluster runtime nor the engine, directly or not.
func roundsKnowsNoRuntime(imports map[string][]string) []string {
	var bad []string
	for _, dep := range reachable(imports, "repro/internal/rounds") {
		if dep == "repro/internal/cluster" || dep == "repro/internal/engine" {
			bad = append(bad, "repro/internal/rounds depends on "+dep)
		}
	}
	return bad
}

// moduleImports maps every package of this module that pkgs reach to the
// module packages its non-test files import, as go/build selects the files.
func moduleImports(t *testing.T, pkgs ...string) map[string][]string {
	t.Helper()
	imports := map[string][]string{}
	for queue := pkgs; len(queue) > 0; queue = queue[1:] {
		pkg := queue[0]
		if _, done := imports[pkg]; done {
			continue
		}
		bp, err := build.ImportDir(filepath.FromSlash(strings.TrimPrefix(pkg, "repro/")), 0)
		if err != nil {
			t.Fatal(err)
		}
		imports[pkg] = nil
		for _, imp := range bp.Imports {
			if strings.HasPrefix(imp, "repro/") {
				imports[pkg] = append(imports[pkg], imp)
				queue = append(queue, imp)
			}
		}
	}
	return imports
}

var (
	mdRef   = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)
	treeRef = regexp.MustCompile("`((?:internal|cmd)/[A-Za-z0-9_./-]+)`")
)

// docRefs: every Markdown path that file names must exist, resolved from the
// repository root or from the file's folder; in README.md and doc.go so must
// every backticked internal/… or cmd/… path, from the root.
func docRefs(file string, content []byte, exists func(string) bool) []string {
	var bad []string
	for _, ref := range mdRef.FindAll(content, -1) {
		if r := string(ref); !exists(r) && !exists(path.Join(path.Dir(file), r)) {
			bad = append(bad, file+" names "+r+", which does not exist")
		}
	}
	if file == "README.md" || file == "doc.go" {
		for _, m := range treeRef.FindAllSubmatch(content, -1) {
			if r := string(m[1]); !exists(r) {
				bad = append(bad, file+" names "+r+", which does not exist")
			}
		}
	}
	return bad
}

// oneReport: internal/engine builds every graph.RunReport and
// graph.RoundReport; a literal anywhere else is a second stats→report path.
func oneReport(path string, f *ast.File) []string {
	if strings.HasPrefix(path, "internal/engine/") {
		return nil
	}
	names := importNames(f)
	var bad []string
	ast.Inspect(f, func(n ast.Node) bool {
		lit, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		typ := lit.Type
		if arr, ok := typ.(*ast.ArrayType); ok {
			typ = arr.Elt
		}
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		var name string
		switch t := typ.(type) {
		case *ast.SelectorExpr:
			if x, ok := t.X.(*ast.Ident); ok && names[x.Name] == "repro/internal/graph" {
				name = t.Sel.Name
			}
		case *ast.Ident:
			if strings.HasPrefix(path, "internal/graph/") {
				name = t.Name
			}
		}
		if name == "RunReport" || name == "RoundReport" {
			bad = append(bad, path+": builds a graph."+name+" literal")
		}
		return true
	})
	return bad
}

// oneGoldenVersion: the wire goldens live in exactly one directory,
// v<protocolVersion>, so a stale directory cannot outlive a version bump.
func oneGoldenVersion(version string, dirs []string) []string {
	var vs []string
	for _, d := range dirs {
		if strings.HasPrefix(d, "v") {
			vs = append(vs, d)
		}
	}
	if version == "" || len(vs) != 1 || vs[0] != "v"+version {
		return []string{"wire goldens in " + strings.Join(vs, ", ") + " for protocol version " + version}
	}
	return nil
}

// protocolVersion reads the protocolVersion constant off a parsed wire.go.
func protocolVersion(f *ast.File) string {
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			vs := spec.(*ast.ValueSpec)
			for i, name := range vs.Names {
				if name.Name == "protocolVersion" && i < len(vs.Values) {
					if lit, ok := vs.Values[i].(*ast.BasicLit); ok {
						return lit.Value
					}
				}
			}
		}
	}
	return ""
}

// fileRule is a rule over one parsed non-test file, keyed by its
// slash-separated path from the repository root, with the planted
// violations (path → source) it must catch.
type fileRule struct {
	name    string
	check   func(path string, f *ast.File) []string
	planted map[string]string
}

// TestArchitecture holds design rules as checks over the parsed non-test Go
// files of cmd/ and internal/: imports, selectors resolved through import
// aliases, and composite literals, so an alias cannot hide a violation and
// a comment cannot trip one. Each rule first fails on a planted violation.
func TestArchitecture(t *testing.T) {
	fset := token.NewFileSet()
	files := map[string]*ast.File{}
	for _, root := range []string{"cmd", "internal", "."} {
		err := filepath.WalkDir(root, func(p string, de os.DirEntry, err error) error {
			if err == nil && de.IsDir() && root == "." && p != "." {
				return fs.SkipDir // the root package only
			}
			if err != nil || de.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			files[filepath.ToSlash(p)] = f
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range []fileRule{
		{"dispatch gate", dispatchGate, map[string]string{
			"cmd/coreset/planted.go": `package main

import s "repro/internal/stream"

// A comment naming stream.Solve trips nothing; the aliased call does.
func run() { s.Solve(nil, nil, s.Config{}, nil, task.Params{}) }
`,
			"internal/service/planted.go": `package service

func run(d *task.Descriptor) { d.Batch(nil, 1, 0, 1, task.Params{}) }
`,
			"internal/engine/planted.go": `package engine

func reference(d *task.Descriptor) { d.Batch(nil, 1, 0, 1, task.Params{}) }
`,
		}},
		{"one report", oneReport, map[string]string{
			"internal/service/planted.go": `package service

import "repro/internal/graph"

func report() *graph.RunReport { return &graph.RunReport{Task: "x"} }
`,
		}},
		{"one router", oneRouter, map[string]string{
			"cmd/coreset/planted.go": `package main

import p "repro/internal/partition"

var route = p.HashAssign
`,
		}},
		{"one loop", oneLoop, map[string]string{
			"internal/cluster/planted.go": `package cluster

import g "repro/internal/graph"

func queue() chan []g.Edge { return make(chan []g.Edge, 4) }
`,
		}},
		{"one local fleet", oneLocalFleet, map[string]string{
			"cmd/coreset/planted.go": `package main

import "os/exec"

var spawn = exec.Command
`,
		}},
	} {
		t.Run(r.name, func(t *testing.T) {
			for path, src := range r.planted {
				f, err := parser.ParseFile(token.NewFileSet(), path, src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				if bad := r.check(path, f); len(bad) != 1 {
					t.Fatalf("planted %s: the rule reports %q, want one violation", path, bad)
				}
			}
			for path, f := range files {
				for _, msg := range r.check(path, f) {
					t.Errorf("%s: %s", r.name, msg)
				}
			}
		})
	}
	t.Run("rounds knows no runtime", func(t *testing.T) {
		planted := map[string][]string{"repro/internal/rounds": {"repro/internal/stream"}, "repro/internal/stream": {"repro/internal/engine"}}
		if len(roundsKnowsNoRuntime(planted)) == 0 {
			t.Fatal("the rule misses an indirect dependency on the engine")
		}
		for _, msg := range roundsKnowsNoRuntime(moduleImports(t, "repro/internal/rounds")) {
			t.Error(msg)
		}
	})
	t.Run("doc references", func(t *testing.T) {
		exists := func(p string) bool { _, err := os.Stat(filepath.FromSlash(p)); return err == nil }
		if len(docRefs("doc.go", []byte("see NOWHERE"+".md and `internal/nowhere`"), exists)) != 2 {
			t.Fatal("the rule misses a planted missing reference")
		}
		var texts []string
		err := filepath.WalkDir(".", func(p string, de os.DirEntry, err error) error {
			if err == nil && de.IsDir() && de.Name() == ".git" {
				return fs.SkipDir
			}
			if err == nil && !de.IsDir() && (strings.HasSuffix(p, ".go") || p == "README.md") {
				texts = append(texts, filepath.ToSlash(p))
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		slices.Sort(texts)
		for _, file := range texts {
			content, err := os.ReadFile(filepath.FromSlash(file))
			if err != nil {
				t.Fatal(err)
			}
			for _, msg := range docRefs(file, content, exists) {
				t.Error(msg)
			}
		}
	})
	t.Run("one golden version", func(t *testing.T) {
		if bad := oneGoldenVersion("5", []string{"v4", "v5"}); len(bad) == 0 {
			t.Fatal("the rule misses a stale golden directory")
		}
		version := protocolVersion(files["internal/cluster/wire.go"])
		entries, err := os.ReadDir(filepath.Join("internal", "cluster", "testdata"))
		if err != nil {
			t.Fatal(err)
		}
		var dirs []string
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, e.Name())
			}
		}
		for _, msg := range oneGoldenVersion(version, dirs) {
			t.Errorf("one golden version: %s", msg)
		}
	})
}
