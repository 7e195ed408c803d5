package plan_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/workload"
)

// lowered builds a small multi-op DAG — a matmul, a ReLU, and an
// inverse whose tiled input forces a re-layout (inverse-single only
// accepts Single) — and returns its graph, env and freshly lowered
// plan. Each corruption test calls it again so mutations never leak.
func lowered(t *testing.T) (*core.Graph, *core.Env, *plan.Plan) {
	t.Helper()
	g := core.NewGraph()
	x := g.Input("X", shape.New(120, 400), 1, format.NewRowStrip(100))
	w := g.Input("W", shape.New(400, 80), 1, format.NewSingle())
	tv := g.Input("T", shape.New(100, 100), 1, format.NewTile(50))
	mm := g.MustApply(op.Op{Kind: op.MatMul}, x, w)
	g.MustApply(op.Op{Kind: op.ReLU}, mm)
	g.MustApply(op.Op{Kind: op.Inverse}, tv)
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	p, err := plan.Lower(g, env, ann)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("freshly lowered plan does not validate: %v", err)
	}
	return g, env, p
}

// firstOfKind returns the index of the first node of the given kind.
func firstOfKind(t *testing.T, p *plan.Plan, k plan.Kind) int {
	t.Helper()
	for _, n := range p.Nodes {
		if n.Kind == k {
			return n.ID
		}
	}
	t.Fatalf("plan has no %v node", k)
	return -1
}

// TestValidateCatchesCorruption mutates a valid lowered plan one defect
// at a time; every mutation must be rejected with ErrInvalidPlan before
// execution.
func TestValidateCatchesCorruption(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(t *testing.T, p *plan.Plan)
	}{
		{"forward input reference", func(t *testing.T, p *plan.Plan) {
			c := firstOfKind(t, p, plan.KindCompute)
			p.Nodes[c].Inputs[0] = len(p.Nodes) - 1
		}},
		{"producer/consumer format mismatch", func(t *testing.T, p *plan.Plan) {
			c := p.Nodes[firstOfKind(t, p, plan.KindCompute)]
			c.InFormats[0] = format.NewCOO()
		}},
		{"unknown implementation", func(t *testing.T, p *plan.Plan) {
			p.Nodes[firstOfKind(t, p, plan.KindCompute)].Name = "mm-made-up"
		}},
		{"unknown transformation", func(t *testing.T, p *plan.Plan) {
			p.Nodes[firstOfKind(t, p, plan.KindRelayout)].Name = "teleport"
		}},
		{"re-layout read by another vertex", func(t *testing.T, p *plan.Plan) {
			// The inverse's re-layout, relabelled as an edge into the
			// ReLU: the inverse's compute now reads another vertex's
			// re-layout, and no step could hold it.
			r := p.Nodes[firstOfKind(t, p, plan.KindRelayout)]
			relu := p.Nodes[firstOfKind(t, p, plan.KindCompute)+1]
			r.Vertex = relu.Vertex
		}},
		{"scan of a non-source vertex", func(t *testing.T, p *plan.Plan) {
			s := p.Nodes[firstOfKind(t, p, plan.KindScan)]
			c := p.Nodes[firstOfKind(t, p, plan.KindCompute)]
			s.Vertex = c.Vertex
		}},
		{"NodeOfVertex out of sync", func(t *testing.T, p *plan.Plan) {
			p.NodeOfVertex[0], p.NodeOfVertex[1] = p.NodeOfVertex[1], p.NodeOfVertex[0]
		}},
		{"node ID out of step", func(t *testing.T, p *plan.Plan) {
			p.Nodes[2].ID = 7
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, p := lowered(t)
			tc.corrupt(t, p)
			err := p.Validate()
			if err == nil {
				t.Fatal("corrupted plan validated cleanly")
			}
			if !errors.Is(err, plan.ErrInvalidPlan) {
				t.Fatalf("error %v does not wrap ErrInvalidPlan", err)
			}
		})
	}
	if err := (&plan.Plan{}).Validate(); !errors.Is(err, plan.ErrInvalidPlan) {
		t.Fatalf("empty plan: %v does not wrap ErrInvalidPlan", err)
	}
}

// TestEncodeDecodeRejectsTampering checks the serialized plan's
// integrity story: a clean payload round-trips, while a tampered node
// listing, a foreign environment, or a wire version other than 5 are
// all rejected with ErrInvalidPlan.
func TestEncodeDecodeRejectsTampering(t *testing.T) {
	g, env, p := lowered(t)
	data, err := plan.Encode(p, env)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := plan.Decode(g, env, data)
	if err != nil {
		t.Fatalf("clean payload rejected: %v", err)
	}
	if p.Explain() != p2.Explain() {
		t.Fatalf("decoded plan renders differently:\n%s\nvs\n%s", p.Explain(), p2.Explain())
	}

	expectInvalid := func(name string, data []byte, g *core.Graph, env *core.Env) {
		t.Helper()
		if _, err := plan.Decode(g, env, data); !errors.Is(err, plan.ErrInvalidPlan) {
			t.Fatalf("%s: %v does not wrap ErrInvalidPlan", name, err)
		}
	}
	// A payload lowered for one cluster must not replay on another: the
	// fingerprint covers the environment, not just the graph.
	other := core.NewEnv(costmodel.LocalTest(5), format.All())
	expectInvalid("foreign environment", data, g, other)
	// Tampering with the node listing after serialization.
	expectInvalid("tampered operator name", bytes.Replace(data, []byte(`"name": "load"`), []byte(`"name": "leak"`), 1), g, env)
	// A wire version outside the range: unknown, or one nothing reads
	// any more (1 and 2 nested an annotation beside the listing, 4
	// listed free nodes).
	for _, v := range []string{"99", "6", "4", "1", "2", "0"} {
		expectInvalid("version "+v, bytes.Replace(data, []byte(`"version": 5`), []byte(`"version": `+v), 1), g, env)
	}
}

// TestLowerMatchesAnnotationCost pins the invariant Simulate has always
// relied on: the lowered plan's summed node costs equal the annotation's
// own total, because lowering re-derives every operator cost in the same
// fold order.
func TestLowerMatchesAnnotationCost(t *testing.T) {
	g, env, p := lowered(t)
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := p.PredictedSeconds(), ann.Total(); got != want {
		t.Fatalf("lowered plan predicts %v seconds, annotation totals %v", got, want)
	}
	scans, relayouts, computes := p.Counts()
	if scans != 3 || computes != 3 {
		t.Fatalf("expected 3 scans and 3 computes, got %d and %d", scans, computes)
	}
	if relayouts == 0 {
		t.Fatal("the tiled inverse input must lower to a re-layout node")
	}
}

// TestConsumersReleaseAtLastConsumer walks each plan's Steps in order,
// decrementing Consumers once per dep of every step, as both runtimes
// do. Every value that is not retained must be released exactly once,
// right after the step of its last consumer in the graph — where
// lowering used to place a free node — and no retained value ever.
func TestConsumersReleaseAtLastConsumer(t *testing.T) {
	type lowering struct {
		name string
		p    *plan.Plan
	}
	_, _, small := lowered(t)
	plans := []lowering{{"lowered", small}}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	for _, spec := range []workload.Spec{
		{Workload: "chain"}, {Workload: "ffnn3", Scale: 200}, {Workload: "inverse"},
	} {
		g, err := spec.Normalized().Graph()
		if err != nil {
			t.Fatal(err)
		}
		ann, err := core.Optimize(g, env)
		if err != nil {
			t.Fatal(err)
		}
		// Once as lowered, and once keeping the first intermediate,
		// which has consumers of its own.
		inter := slices.IndexFunc(g.Vertices, func(v *core.Vertex) bool { return !v.IsSource && len(v.Outs) > 0 })
		for _, keep := range [][]int{nil, {inter}} {
			p, err := plan.Lower(g, env, ann, keep...)
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, lowering{fmt.Sprintf("%s keep %v", spec.Workload, keep), p})
		}
	}
	for _, l := range plans {
		g := l.p.Graph
		// The old way: graph in-edges counted, the sinks and kept
		// vertices retained, a value freed after the vertex whose
		// in-edges bring its count to zero.
		refs := make([]int, len(g.Vertices))
		for _, v := range g.Vertices {
			for _, in := range v.Ins {
				refs[in.ID]++
			}
		}
		retained := make(map[int]bool)
		for _, id := range l.p.Retained {
			retained[id] = true
		}
		want := make(map[int]int) // vertex → the step after which it is freed
		for _, v := range g.Vertices {
			for _, in := range v.Ins {
				if refs[in.ID]--; refs[in.ID] == 0 && !retained[in.ID] {
					want[in.ID] = v.ID
				}
			}
		}

		got := make(map[int]int)
		count := l.p.Consumers()
		for v, s := range l.p.Steps() {
			if s.Node.Vertex != v {
				t.Fatalf("%s: step %d runs vertex %d's node", l.name, v, s.Node.Vertex)
			}
			for _, d := range s.Deps {
				if count[d]--; count[d] == 0 {
					if prev, twice := got[d]; twice {
						t.Fatalf("%s: v%d released after step %d and again after step %d", l.name, d, prev, v)
					}
					got[d] = v
				}
			}
		}
		for id := range retained {
			if at, ok := got[id]; ok {
				t.Errorf("%s: retained v%d released after step %d", l.name, id, at)
			}
		}
		if !maps.Equal(got, want) {
			t.Errorf("%s: released after steps %v, want %v", l.name, got, want)
		}
		if len(want)+len(retained) != len(g.Vertices) {
			t.Errorf("%s: %d released and %d retained of %d vertices", l.name, len(want), len(retained), len(g.Vertices))
		}
	}
}
