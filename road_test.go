package matopt

import (
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
