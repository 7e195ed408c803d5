package workload

import (
	"encoding/json"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/tensor"
)

// TestSpecBuildIsDeterministic: one spec is one computation on one set
// of bytes. Every workload, built twice, must yield graphs with the
// same fingerprint and input matrices that agree bit for bit — the
// property the CLI's chain inputs lacked while they were drawn in map
// iteration order from one generator.
func TestSpecBuildIsDeterministic(t *testing.T) {
	env := core.NewEnv(costmodel.LocalTest(2), format.All())
	for _, s := range []Spec{
		{Workload: "chain", SizeSet: 1, Scale: 400},
		{Workload: "chain", SizeSet: 2, Scale: 400, Seed: 9},
		{Workload: "chain", SizeSet: 3, Scale: 600},
		{Workload: "ffnn", Scale: 4000},
		{Workload: "ffnn3", Scale: 4000, Seed: 3},
		{Workload: "inverse", Scale: 200},
	} {
		s = s.Normalized()
		g1, in1, err := s.Build()
		if err != nil {
			t.Fatalf("%+v: %v", s, err)
		}
		g2, in2, err := s.Build()
		if err != nil {
			t.Fatalf("%+v: second build: %v", s, err)
		}
		if core.Fingerprint(g1, env) != core.Fingerprint(g2, env) {
			t.Errorf("%+v: two builds fingerprint differently", s)
		}
		if gg, err := s.Graph(); err != nil || core.Fingerprint(gg, env) != core.Fingerprint(g1, env) {
			t.Errorf("%+v: Graph() is not Build()'s graph (err %v)", s, err)
		}
		if len(in1) != len(g1.Sources()) || len(in2) != len(in1) {
			t.Fatalf("%+v: %d and %d inputs for %d sources", s, len(in1), len(in2), len(g1.Sources()))
		}
		for name, a := range in1 {
			if !tensor.BitEqual(in2[name], a) {
				t.Fatalf("%+v: input %s differs between two builds (shape or math.Float64bits)", s, name)
			}
		}
	}
}

// TestSpecPaperGraph: the paper-scale form builds the published sizes
// whatever Scale says, and knows the motivating chain that the
// executable catalogue refuses.
func TestSpecPaperGraph(t *testing.T) {
	g, err := Spec{Workload: "chain", SizeSet: 1, Hidden: 80000, Scale: 100, Seed: 1}.PaperGraph()
	if err != nil {
		t.Fatal(err)
	}
	if a := g.ByName("A").Shape; a != ChainSizeSets()[0].A {
		t.Errorf("paper-scale chain A is %v, want %v", a, ChainSizeSets()[0].A)
	}
	if _, err := (Spec{Workload: "motivating", Scale: 1}).PaperGraph(); err != nil {
		t.Errorf("motivating at paper scale: %v", err)
	}
	if _, _, err := (Spec{Workload: "motivating"}).Normalized().Build(); err == nil {
		t.Error("the motivating chain must not build at executable scale")
	}
}

// FuzzSpec feeds the spec decoder every request body starts with
// arbitrary JSON. Whatever decodes must normalize and validate without
// panicking, and what Validate accepts must build a graph or return an
// error — at any scale, width or seed a client can write, since a graph
// is symbolic and costs no memory.
func FuzzSpec(f *testing.F) {
	f.Add([]byte(`{"workload":"chain"}`))
	f.Add([]byte(`{"workload":"chain","sizeset":3,"scale":800,"seed":7}`))
	f.Add([]byte(`{"workload":"ffnn3","hidden":80000,"scale":200}`))
	f.Add([]byte(`{"workload":"inverse","scale":9223372036854775807}`))
	f.Add([]byte(`{"workload":"ffnn","hidden":9223372036854775807,"scale":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var s Spec
		if err := json.Unmarshal(data, &s); err != nil {
			return
		}
		s = s.Normalized()
		if err := s.Validate(); err != nil {
			return
		}
		g, err := s.Graph()
		if (g == nil) == (err == nil) {
			t.Fatalf("%+v: Graph returned %v and error %v", s, g, err)
		}
		if g, err := s.PaperGraph(); (g == nil) == (err == nil) {
			t.Fatalf("%+v: PaperGraph returned %v and error %v", s, g, err)
		}
	})
}
