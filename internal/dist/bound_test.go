package dist_test

import (
	"context"
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/trans"
)

// handAnn annotates a two-input matmul graph with one forced
// implementation and identity edges, so the bound test controls exactly
// which communication pattern runs.
func handAnn(t *testing.T, g *core.Graph, implName string, outFormat format.Format) *core.Annotation {
	t.Helper()
	im := impl.ByName(implName)
	if im == nil {
		t.Fatalf("no implementation %q", implName)
	}
	ann := &core.Annotation{
		Graph:        g,
		VertexImpl:   map[int]*impl.Impl{},
		VertexFormat: map[int]format.Format{},
		EdgeTrans:    map[core.EdgeKey]*trans.Transform{},
		VertexCost:   map[int]float64{},
		EdgeCost:     map[core.EdgeKey]float64{},
	}
	for _, v := range g.Vertices {
		if v.IsSource {
			ann.VertexFormat[v.ID] = v.SrcFormat
			continue
		}
		ann.VertexImpl[v.ID] = im
		ann.VertexFormat[v.ID] = outFormat
		for j := range v.Ins {
			ann.EdgeTrans[core.EdgeKey{To: v.ID, Arg: j}] = trans.IdentityTransform
		}
	}
	return ann
}

// measuredVsPredicted runs the annotated plan at several shard counts
// and checks the runtime's measured cross-shard bytes against the cost
// model's ceiling: the per-link worst-case NetBytes feature, scaled by
// the link count (no pattern can exceed the busiest link on every link
// at once).
func measuredVsPredicted(t *testing.T, name string, g *core.Graph, ann *core.Annotation, inputs map[string]*tensor.Dense) {
	t.Helper()
	mm := g.Sinks()[0]
	im := ann.VertexImpl[mm.ID]
	for _, shards := range []int{1, 2, 7} {
		cl := costmodel.LocalTest(shards)
		ins := make([]impl.Input, len(mm.Ins))
		for j, in := range mm.Ins {
			ins[j] = impl.Input{Shape: in.Shape, Density: in.Density, Format: ann.VertexFormat[in.ID]}
		}
		out, ok := im.Apply(op.Op{Kind: op.MatMul}, ins, mm.Shape, mm.Density, cl)
		if !ok {
			t.Fatalf("%s @%d shards: %s rejected the plan", name, shards, im.Name)
		}
		// No pattern pushes more than the busiest link's volume over
		// every one of the links at once.
		ceiling := out.Features.NetBytes * float64(shards)

		rt, err := dist.New(cl, dist.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		pp := enginetest.Lower(t, core.NewEnv(cl, format.All()), ann)
		_, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err != nil {
			t.Fatalf("%s @%d shards: %v", name, shards, err)
		}
		if float64(rep.NetBytes) > ceiling {
			t.Errorf("%s @%d shards: measured %d shuffle bytes exceed the model ceiling %.0f (per-link feature %.0f)\n%s",
				name, shards, rep.NetBytes, ceiling, out.Features.NetBytes, rep)
		}
		if shards == 1 && rep.NetBytes != 0 {
			t.Errorf("%s: single shard moved %d bytes; all delivery should be local", name, rep.NetBytes)
		}
	}
}

// TestBoundBroadcastPlan checks the broadcast-join matmul: dist's
// measured traffic (the broadcast matrix shipped to each peer) must stay
// under the model's binomial-tree broadcast feature times the link
// count.
func TestBoundBroadcastPlan(t *testing.T) {
	g := core.NewGraph()
	a := g.Input("A", shape.New(100, 300), 1, format.NewSingle())
	b := g.Input("B", shape.New(300, 500), 1, format.NewColStrip(100))
	g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	ann := handAnn(t, g, "mm-bcast-single-colstrip", format.NewColStrip(100))
	rng := rand.New(rand.NewSource(7))
	inputs := map[string]*tensor.Dense{
		"A": tensor.RandNormal(rng, 100, 300),
		"B": tensor.RandNormal(rng, 300, 500),
	}
	measuredVsPredicted(t, "broadcast-plan", g, ann, inputs)
}

// TestBoundShufflePlan checks the shuffle-join matmul: repartitioned
// inputs plus routed partial products must stay under the model's
// shuffle features times the link count.
func TestBoundShufflePlan(t *testing.T) {
	g := core.NewGraph()
	a := g.Input("A", shape.New(200, 200), 1, format.NewTile(100))
	b := g.Input("B", shape.New(200, 200), 1, format.NewTile(100))
	g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	ann := handAnn(t, g, "mm-tile-tile-shuffle", format.NewTile(100))
	rng := rand.New(rand.NewSource(8))
	inputs := map[string]*tensor.Dense{
		"A": tensor.RandNormal(rng, 200, 200),
		"B": tensor.RandNormal(rng, 200, 200),
	}
	measuredVsPredicted(t, "shuffle-plan", g, ann, inputs)
}
