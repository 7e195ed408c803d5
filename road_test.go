package matopt

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
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
// from growing back under internal/. Every non-test package of the
// repository, the nested cmd/bench module included, is type-checked for
// each build configuration `make check` builds — the default, purego,
// noavx512 and matopt_poison — and each identifier is resolved to the
// function or method it names, so a method is keyed by its receiver type
// and not by its bare name. A function any configuration declares must
// have a caller in some configuration. An exported function or method counts as called when a
// non-test file names it outside its own declaration; a method also
// counts when the method of an interface its type implements is named.
// String, Error, Unwrap and ServeHTTP are reached through the standard
// library's interfaces and are exempt. The test-helper packages and the
// benchmark's own kit are not checked, and the hooks below are kept for
// tests that drive the production path with them.
func TestEveryInternalFunctionHasACaller(t *testing.T) {
	kept := map[string]string{
		"netfabric.SeverSessions":      "chaos tests cut a session of the production server mid-exchange",
		"netfabric.CloseAfterSessions": "chaos tests make a production worker leave mid-run",
		"netfabric.WithIOTimeout":      "chaos tests shorten the transport's socket deadline to fail fast",
		"impl.All":                     "TestOperatorTableComplete walks the implementation registry",
		"trans.All":                    "TestOperatorTableComplete walks the transformation registry",
		"tensor.Outstanding":           "TestRunsLeaveStorageEmpty checks a run gives back every array it draws",
	}
	// Every configuration `make check` builds: the host's default, the
	// portable kernels, AVX2 as the widest, and the poisoned free lists.
	// A function counts as declared when any configuration declares it
	// and as called when any configuration calls it.
	fset := token.NewFileSet()
	parsed := map[string]*ast.File{} // each file parsed once, shared by the configurations that build it
	declared := map[string]*types.Func{}
	called := map[string]bool{}
	for _, tags := range [][]string{nil, {"purego"}, {"noavx512"}, {"matopt_poison"}} {
		ctxt := build.Default
		ctxt.BuildTags = tags
		d, c, err := callGraph(ctxt, fset, parsed)
		if err != nil {
			t.Fatalf("build tags %v: %v", tags, err)
		}
		for name, fn := range d {
			if declared[name] == nil {
				declared[name] = fn
			}
		}
		maps.Copy(called, c)
	}

	var missing []string
	for name, fn := range declared {
		ok := called[name]
		if reason, isKept := kept[name]; isKept {
			if ok {
				t.Errorf("%s is kept as a test hook (%s) but has a caller now: drop it from the list", name, reason)
			}
			continue
		}
		if !ok {
			pos := fset.Position(fn.Pos())
			missing = append(missing, fmt.Sprintf("%s:%d: %s", pos.Filename, pos.Line, name))
		}
	}
	sort.Strings(missing)
	for _, m := range missing {
		t.Errorf("%s has no caller outside tests: delete it, or keep it with a reason", m)
	}
}

// callGraph type-checks every non-test package of the repository for
// the build configuration ctxt and returns, by key, the exported
// functions and methods of the checked internal packages it declares and
// every function or method some file names outside its own declaration
// (a method also when the method of an interface its type implements is
// named). parsed holds the files already parsed into fset, by path.
func callGraph(ctxt build.Context, fset *token.FileSet, parsed map[string]*ast.File) (declared map[string]*types.Func, called map[string]bool, err error) {
	skipped := map[string]bool{"internal/testutil": true, "internal/enginetest": true, "internal/benchkit": true}
	interfaceMethods := map[string]bool{"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true}
	files := map[string][]*ast.File{} // slash dir relative to the repository root → its non-test files
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		dir, name := filepath.Split(path)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := ctxt.MatchFile(filepath.Clean(dir), name); !ok || err != nil {
			return err
		}
		f := parsed[path]
		if f == nil {
			if f, err = parser.ParseFile(fset, path, nil, 0); err != nil {
				return err
			}
			parsed[path] = f
		}
		dir = filepath.ToSlash(filepath.Clean(dir))
		files[dir] = append(files[dir], f)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Packages of this repository are checked from the files above, in
	// the order their imports ask for them, so every package shares one
	// set of types; the standard library comes from the compiler's
	// export data.
	std := importer.ForCompiler(fset, "gc", nil)
	pkgs := map[string]*types.Package{}
	infos := map[string]*types.Info{}
	var check func(dir string) (*types.Package, error)
	imp := importerFunc(func(path string) (*types.Package, error) {
		if path == "matopt" {
			return check(".")
		}
		if dir, ok := strings.CutPrefix(path, "matopt/"); ok {
			return check(dir)
		}
		return std.Import(path)
	})
	check = func(dir string) (*types.Package, error) {
		if p, ok := pkgs[dir]; ok {
			return p, nil
		}
		info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
		path := "matopt"
		if dir != "." {
			path += "/" + dir
		}
		p, err := (&types.Config{Importer: imp}).Check(path, fset, files[dir], info)
		if err != nil {
			return nil, err
		}
		pkgs[dir], infos[dir] = p, info
		return p, nil
	}
	for dir := range files {
		if _, err := check(dir); err != nil {
			return nil, nil, fmt.Errorf("type-checking %s: %w", dir, err)
		}
	}

	// key names a function p.F or a method p.T.M, p relative to internal/.
	key := func(fn *types.Func) string {
		fn = fn.Origin()
		name := strings.TrimPrefix(fn.Pkg().Path(), "matopt/internal/") + "."
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			typ := recv.Type()
			if ptr, ok := typ.(*types.Pointer); ok {
				typ = ptr.Elem()
			}
			if named, ok := typ.(*types.Named); ok {
				name += named.Origin().Obj().Name() + "."
			}
		}
		return name + fn.Name()
	}

	// What is declared, and what is used outside its own declaration.
	declared, called = map[string]*types.Func{}, map[string]bool{}
	viaInterface := map[*types.Func]bool{} // interface methods some file names
	for dir, fs := range files {
		info := infos[dir]
		for _, f := range fs {
			for _, d := range f.Decls {
				self := ""
				if fd, ok := d.(*ast.FuncDecl); ok {
					fn := info.Defs[fd.Name].(*types.Func)
					self = key(fn)
					if strings.HasPrefix(dir, "internal/") && !skipped[dir] && fd.Name.IsExported() &&
						!(fd.Recv != nil && interfaceMethods[fd.Name.Name]) {
						declared[self] = fn
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					fn, ok := info.Uses[id].(*types.Func)
					if !ok || fn.Pkg() == nil {
						return true
					}
					if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
						viaInterface[fn] = true
					} else if k := key(fn); k != self {
						called[k] = true
					}
					return true
				})
			}
		}
	}
	// A method reached through an interface is called as the method of
	// every repository type that implements the interface.
	for _, p := range pkgs {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); !ok || named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			for im := range viaInterface {
				iface := im.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface)
				if !types.Implements(ptr, iface) {
					continue
				}
				obj, _, _ := types.LookupFieldOrMethod(ptr, false, im.Pkg(), im.Name())
				if fn, ok := obj.(*types.Func); ok {
					called[key(fn)] = true
				}
			}
		}
	}
	return declared, called, nil
}

// importerFunc adapts a function to types.Importer.
type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
