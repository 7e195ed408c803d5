package matopt

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"matopt/internal/dist"
	"matopt/internal/engine"
)

// TestOneRoadFromComputationToBytes pins the driver so it cannot
// re-fork. (a) The command line, the daemon and the serving layer drive
// this package's Optimizer and Executor and nothing beneath them: none
// may import the optimizer core or the sequential engine. (b) Each
// runtime has one way to run a plan: the engine's Run* methods are
// RunPlan and its adaptive variant, the dist runtime's RunPlan alone.
// (c) There is one production search: Algorithms 3 and 2 are reached by
// name only — TreeDP from the figures, Brute from the figures and from
// the optimizer's BruteForce branch.
func TestOneRoadFromComputationToBytes(t *testing.T) {
	for _, dir := range []string{"cmd/matopt", "cmd/matoptd", "internal/serve"} {
		pkgs, err := parser.ParseDir(token.NewFileSet(), dir, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		if len(pkgs) == 0 {
			t.Errorf("%s: no Go package found", dir)
		}
		for _, pkg := range pkgs {
			for name, file := range pkg.Files {
				if strings.HasSuffix(name, "_test.go") {
					continue
				}
				for _, imp := range file.Imports {
					switch path, _ := strconv.Unquote(imp.Path.Value); path {
					case "matopt/internal/engine", "matopt/internal/core":
						t.Errorf("%s imports %s: drive matopt.Optimizer and matopt.Executor instead", name, path)
					}
				}
			}
		}
	}

	for _, c := range []struct {
		runtime any
		want    []string
	}{
		{&engine.Engine{}, []string{"RunAdaptive", "RunPlan"}},
		{&dist.Runtime{}, []string{"RunPlan"}},
	} {
		typ := reflect.TypeOf(c.runtime)
		var got []string
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Run") {
				got = append(got, name)
			}
		}
		sort.Strings(got)
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("%v has Run* methods %v, want exactly %v", typ, got, c.want)
		}
	}

	bruteInOptimizer := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "internal/core" || dir == "internal/figures" {
			return nil
		}
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			switch {
			case !ok:
			case sel.Sel.Name == "TreeDP":
				t.Errorf("%s calls TreeDP: the production search is Session.Optimize", path)
			case sel.Sel.Name == "Brute" && path == "optimizer.go":
				bruteInOptimizer++
			case sel.Sel.Name == "Brute":
				t.Errorf("%s calls Brute: ask for it with matopt.WithAlgorithm(matopt.BruteForce)", path)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if bruteInOptimizer != 1 {
		t.Errorf("optimizer.go calls Brute %d times, want once (the BruteForce branch)", bruteInOptimizer)
	}
}

// TestEveryInternalFunctionHasACaller keeps code that no program runs
// from growing back under internal/. An exported package-level function
// p.F counts as called when a non-test file outside p selects p.F
// through its import, or a non-test file of p names F outside F's own
// declaration; an exported method M counts as called when a non-test
// file anywhere selects .M outside the declarations of M. String,
// Error, Unwrap and ServeHTTP are reached through interfaces and are
// exempt. The test-helper packages and the benchmark's own kit are not
// checked, and the hooks below are kept for tests that drive the
// production path with them.
func TestEveryInternalFunctionHasACaller(t *testing.T) {
	skipped := map[string]bool{"internal/testutil": true, "internal/enginetest": true, "internal/benchkit": true}
	kept := map[string]string{
		"netfabric.SeverSessions":      "chaos tests cut a session of the production server mid-exchange",
		"netfabric.CloseAfterSessions": "chaos tests make a production worker leave mid-run",
		"netfabric.WithIOTimeout":      "chaos tests shorten the transport's socket deadline to fail fast",
		"impl.All":                     "TestOperatorTableComplete walks the implementation registry",
		"trans.All":                    "TestOperatorTableComplete walks the transformation registry",
	}
	interfaceMethods := map[string]bool{"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true}

	type decl struct {
		name     string // p.F or p.T.M, p relative to internal/
		pos      token.Position
		from, to token.Pos
	}
	type file struct {
		dir  string // slash path relative to the repository root
		ast  *ast.File
		decl []*ast.FuncDecl
	}
	fset := token.NewFileSet()
	var files []file
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		fl := file{dir: filepath.ToSlash(filepath.Dir(path)), ast: f}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				fl.decl = append(fl.decl, fd)
			}
		}
		files = append(files, fl)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// What is declared: exported functions per package and exported
	// methods by name, with the extent of each declaration.
	funcs := map[string][]decl{}   // "dir.F" → its declaration
	methods := map[string][]decl{} // "M" → every declaration of a method M
	for _, f := range files {
		if !strings.HasPrefix(f.dir, "internal/") || skipped[f.dir] {
			continue
		}
		pkg := strings.TrimPrefix(f.dir, "internal/")
		for _, fd := range f.decl {
			if !fd.Name.IsExported() {
				continue
			}
			d := decl{pkg + "." + fd.Name.Name, fset.Position(fd.Pos()), fd.Pos(), fd.End()}
			if fd.Recv == nil {
				funcs[f.dir+"."+fd.Name.Name] = append(funcs[f.dir+"."+fd.Name.Name], d)
				continue
			}
			if interfaceMethods[fd.Name.Name] {
				continue
			}
			recv := fd.Recv.List[0].Type
			if star, ok := recv.(*ast.StarExpr); ok {
				recv = star.X
			}
			switch x := recv.(type) {
			case *ast.IndexExpr:
				recv = x.X
			case *ast.IndexListExpr:
				recv = x.X
			}
			d.name = pkg + "." + recv.(*ast.Ident).Name + "." + fd.Name.Name
			methods[fd.Name.Name] = append(methods[fd.Name.Name], d)
		}
	}
	within := func(ds []decl, p token.Pos) bool {
		for _, d := range ds {
			if d.from <= p && p < d.to {
				return true
			}
		}
		return false
	}

	// What is used.
	called := map[string]bool{}
	for _, f := range files {
		imports := map[string]string{} // local name → slash dir of an internal package
		for _, imp := range f.ast.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			if !strings.HasPrefix(path, "matopt/internal/") {
				continue
			}
			name := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = strings.TrimPrefix(path, "matopt/")
		}
		selected := map[*ast.Ident]bool{}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			selected[sel.Sel] = true
			if x, ok := sel.X.(*ast.Ident); ok && x.Obj == nil && imports[x.Name] != "" {
				called[imports[x.Name]+"."+sel.Sel.Name] = true
			} else if !within(methods[sel.Sel.Name], sel.Pos()) {
				called["."+sel.Sel.Name] = true
			}
			return true
		})
		declared := map[*ast.Ident]bool{}
		for _, fd := range f.decl {
			declared[fd.Name] = true
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if ok && !selected[id] && !declared[id] {
				if key := f.dir + "." + id.Name; !within(funcs[key], id.Pos()) {
					called[key] = true
				}
			}
			return true
		})
	}

	var missing []string
	check := func(name string, pos token.Position, ok bool) {
		if reason, isKept := kept[name]; isKept {
			if ok {
				t.Errorf("%s is kept as a test hook (%s) but has a caller now: drop it from the list", name, reason)
			}
			return
		}
		if !ok {
			missing = append(missing, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
		}
	}
	for key, ds := range funcs {
		check(ds[0].name, ds[0].pos, called[key])
	}
	for name, ds := range methods {
		for _, d := range ds {
			check(d.name, d.pos, called["."+name])
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller outside tests: delete it, or keep it with a reason", m)
	}
}
