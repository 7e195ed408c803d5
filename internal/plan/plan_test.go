package plan_test

import (
	"bytes"
	"errors"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
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
		{"double free", func(t *testing.T, p *plan.Plan) {
			f := p.Nodes[firstOfKind(t, p, plan.KindFree)]
			p.Nodes = append(p.Nodes, &plan.Node{
				ID: len(p.Nodes), Kind: plan.KindFree, Vertex: f.Vertex,
				Name: "free", Inputs: []int{f.Inputs[0]}, Strategy: "free",
			})
		}},
		{"free of a retained sink", func(t *testing.T, p *plan.Plan) {
			sink := p.Retained[len(p.Retained)-1]
			p.Nodes = append(p.Nodes, &plan.Node{
				ID: len(p.Nodes), Kind: plan.KindFree, Vertex: sink,
				Name: "free", Inputs: []int{p.NodeOfVertex[sink]}, Strategy: "free",
			})
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
// listing, a foreign environment, or a wire version other than 3 or 4
// are all rejected with ErrInvalidPlan.
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
	// any more (1 and 2 nested an annotation beside the listing).
	for _, v := range []string{"99", "5", "1", "2", "0"} {
		expectInvalid("version "+v, bytes.Replace(data, []byte(`"version": 4`), []byte(`"version": `+v), 1), g, env)
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
	scans, relayouts, computes, frees := p.Counts()
	if scans != 3 || computes != 3 {
		t.Fatalf("expected 3 scans and 3 computes, got %d and %d", scans, computes)
	}
	if relayouts == 0 {
		t.Fatal("the tiled inverse input must lower to a re-layout node")
	}
	if frees == 0 {
		t.Fatal("plan frees nothing; intermediate values would never be released")
	}
}
