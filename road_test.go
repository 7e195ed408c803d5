package matopt

import (
	"go/parser"
	"go/token"
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
}
