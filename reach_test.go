package repro_test

// TestInternalReachedFromBinaries keeps production code down to what a
// binary runs: every declaration in a non-test file under internal/ must
// be reachable from the main or init functions of cmd/, examples/,
// scripts/ or the perfbench module, or be listed in testSeams with the
// test or benchmark outside its package that needs it. The pass uses only
// `go list` and go/types: module packages are type-checked from source,
// the standard library is imported from the build cache's export data.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testSeams names the declarations under internal/ that no binary reaches
// but a test in another package or a root benchmark or integration test
// needs. Keys are "pkg.Name" or "pkg.Type.Method"; each value names a
// user. A seam is a root of its own: what only it reaches needs no entry.
var testSeams = map[string]string{
	"bml.WithThresholdMode":         "BenchmarkAblationThresholdMode (bench_test.go)",
	"bml.WithPreFilteredCandidates": "sched and sim tests (rigs with a fixed candidate set)",
	"bml.ThresholdMap":              "TestPipelineProfileToPlanToSim (integration_test.go)",
	"trace.MustNew":                 "sim tests (config, shard, sim, differential)",
	"trace.Trace.SlidingMax":        "BenchmarkSlidingMax (bench_test.go), predict's look-ahead oracle",
	"trace.Trace.Day":               "BenchmarkSlidingMax, BenchmarkSchedulerDay (bench_test.go)",
	"power.IntervalEnergy":          "sim's static reference test (static_reference_test.go)",
	"qos.Tracker.Seconds":           "sim's tick ≡ integrator suites (differential_test.go)",
	"machine.Machine.CurrentPower":  "cluster's lockstep suite (differential_test.go)",
	"sim.RunBMLDecisions":           "ctrl's live replay harness and TestRunBMLDecisionsKeepsWholeLog; it reads sched's decision log",
}

// listedPackage is the part of `go list -json` output the pass reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList runs `go list -json` in dir with the given flags and patterns.
func goList(t *testing.T, dir string, args ...string) []listedPackage {
	t.Helper()
	args = append([]string{"list", "-json=Dir,ImportPath,GoFiles,Export,Standard"}, args...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(strings.NewReader(string(out)))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// loadedPackage is one module package type-checked from source.
type loadedPackage struct {
	path  string
	dir   string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// moduleImporter serves module packages from the ones already checked
// (go list -deps orders dependencies first) and everything else from
// export data.
type moduleImporter struct {
	module map[string]*loadedPackage
	std    types.Importer
}

func (m moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.module[path]; ok {
		return p.types, nil
	}
	return m.std.Import(path)
}

func loadModule(t *testing.T) (*token.FileSet, []*loadedPackage) {
	t.Helper()
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	listed := goList(t, root, "-deps", "./cmd/...", "./examples/...", "./scripts/...", "./internal/...")
	listed = append(listed, goList(t, filepath.Join(root, "perfbench"), "-deps", "./...")...)

	// Only the standard library is imported from export data, so only its
	// packages are listed with -export (which compiles what it lists).
	var std []string
	for _, p := range listed {
		if p.Standard {
			std = append(std, p.ImportPath)
		}
	}
	exports := map[string]string{}
	for _, p := range goList(t, root, append([]string{"-export"}, std...)...) {
		exports[p.ImportPath] = p.Export
	}
	fset := token.NewFileSet()
	imp := moduleImporter{
		module: map[string]*loadedPackage{},
		std: importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
			f, ok := exports[path]
			if !ok {
				return nil, fmt.Errorf("no export data for %s", path)
			}
			return os.Open(f)
		}),
	}
	var loaded []*loadedPackage
	for _, p := range listed {
		if p.Standard || imp.module[p.ImportPath] != nil {
			continue
		}
		lp := &loadedPackage{path: p.ImportPath, dir: p.Dir}
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
			if err != nil {
				t.Fatal(err)
			}
			lp.files = append(lp.files, f)
		}
		lp.info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
		conf := types.Config{Importer: imp}
		lp.types, err = conf.Check(p.ImportPath, fset, lp.files, lp.info)
		if err != nil {
			t.Fatalf("type-checking %s: %v", p.ImportPath, err)
		}
		imp.module[p.ImportPath] = lp
		loaded = append(loaded, lp)
	}
	return fset, loaded
}

// decl is one package-level declaration: a func, method, type, var or const.
type decl struct {
	pkg  *loadedPackage
	node ast.Node // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	doc  *ast.CommentGroup
	key  string
}

// unreachedDecls returns the keys of the declarations under internal/ that
// neither a main or init nor a test seam reaches, each with its position
// and line count, and the testSeams keys that name no declaration or one a
// binary reaches.
func unreachedDecls(t *testing.T) (unreached map[string]string, stale []string) {
	fset, pkgs := loadModule(t)

	decls := map[types.Object]*decl{}
	var roots []types.Object
	for _, p := range pkgs {
		short := strings.TrimPrefix(p.path, "repro/")
		short = short[strings.LastIndex(short, "/")+1:]
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					obj := p.info.Defs[d.Name]
					key := short + "." + d.Name.Name
					if d.Recv != nil {
						key = short + "." + recvName(d.Recv.List[0].Type) + "." + d.Name.Name
					}
					decls[obj] = &decl{pkg: p, node: d, doc: d.Doc, key: key}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && p.types.Name() == "main") {
						roots = append(roots, obj)
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						doc := d.Doc
						switch s := s.(type) {
						case *ast.TypeSpec:
							if s.Doc != nil || len(d.Specs) > 1 {
								doc = s.Doc
							}
							decls[p.info.Defs[s.Name]] = &decl{pkg: p, node: s, doc: doc, key: short + "." + s.Name.Name}
						case *ast.ValueSpec:
							if s.Doc != nil || len(d.Specs) > 1 {
								doc = s.Doc
							}
							for _, n := range s.Names {
								if n.Name != "_" {
									decls[p.info.Defs[n]] = &decl{pkg: p, node: s, doc: doc, key: short + "." + n.Name}
								}
							}
						}
					}
				}
			}
		}
	}

	ifaces := interfaceTypes(pkgs)
	reached := map[types.Object]bool{}
	var work []types.Object
	mark := func(obj types.Object) {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if _, ok := decls[obj]; ok && !reached[obj] {
			reached[obj] = true
			work = append(work, obj)
		}
	}
	visit := func(obj types.Object) {
		d := decls[obj]
		ast.Inspect(d.node, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := d.pkg.info.Uses[id]; u != nil {
					mark(u)
				}
			}
			return true
		})
		// A reached type reaches the methods through which it satisfies
		// an interface: they may be called by a dynamic dispatch that
		// names no concrete method.
		if tn, ok := obj.(*types.TypeName); ok {
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				return
			}
			ptr := types.NewPointer(named)
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				for _, it := range ifaces[m.Name()] {
					if types.Implements(named, it) || types.Implements(ptr, it) {
						mark(m)
						break
					}
				}
			}
		}
	}
	walk := func(roots []types.Object) {
		for _, r := range roots {
			if !reached[r] {
				reached[r] = true
				work = append(work, r)
			}
		}
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			visit(obj)
		}
	}

	// Binaries first: a seam they reach is no longer a seam.
	walk(roots)
	byKey := map[string]types.Object{}
	for obj, d := range decls {
		byKey[d.key] = obj
	}
	var seams []types.Object
	for key := range testSeams {
		obj, ok := byKey[key]
		if !ok || reached[obj] {
			stale = append(stale, key)
			continue
		}
		seams = append(seams, obj)
	}
	walk(seams)

	unreached = map[string]string{}
	for obj, d := range decls {
		if reached[obj] || !strings.HasPrefix(d.pkg.path, "repro/internal/") {
			continue
		}
		from, to := d.node.Pos(), d.node.End()
		if fd, ok := d.node.(*ast.FuncDecl); ok {
			from = fd.Pos()
		}
		if d.doc != nil {
			from = d.doc.Pos()
		}
		start, end := fset.Position(from), fset.Position(to)
		rel, _ := filepath.Rel(filepath.Dir(filepath.Dir(d.pkg.dir)), start.Filename)
		unreached[d.key] = fmt.Sprintf("%s:%d (%d lines)", rel, start.Line, end.Line-start.Line+1)
	}
	return unreached, stale
}

func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return "?"
}

// interfaceTypes indexes every method-set interface that the module's
// packages and their imports declare or spell, by method name.
func interfaceTypes(pkgs []*loadedPackage) map[string][]*types.Interface {
	byName := map[string][]*types.Interface{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] || !it.IsMethodSet() {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			byName[name] = append(byName[name], it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
		for _, tv := range p.info.Types {
			if tv.IsType() {
				add(tv.Type)
			}
		}
	}
	return byName
}

func TestInternalReachedFromBinaries(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go list")
	}
	unreached, stale := unreachedDecls(t)
	var keys []string
	for k := range unreached {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		t.Errorf("%s: %s is reached from no binary; delete it, move it into a test file, or list it in testSeams with its user", unreached[k], k)
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("testSeams lists %s, which a binary reaches or which is gone; drop the entry", k)
	}
}
