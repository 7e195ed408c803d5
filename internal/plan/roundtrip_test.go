package plan_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// roundTripShards is the shard count the serialized-plan replay runs at
// on the dist runtime: prime, so it misaligns with every tile grid.
const roundTripShards = 7

// assertRoundTrip optimizes g, executes it directly on the sequential
// engine as the golden reference, then pushes the plan through the full
// serialization cycle — Lower → Encode → Decode — and executes the
// decoded plan on both the sequential engine and the dist runtime,
// requiring bit-identical outputs (math.Float64bits, no tolerance).
func assertRoundTrip(t *testing.T, name string, cl costmodel.Cluster, g *core.Graph, inputs map[string]*tensor.Dense) {
	t.Helper()
	env := core.NewEnv(cl, format.All())
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatalf("%s: optimize: %v", name, err)
	}
	eng := engine.New(cl)
	p := enginetest.Lower(t, env, ann)
	want := enginetest.Run(t, eng, p, inputs)
	data, err := plan.Encode(p, env)
	if err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	p2, err := plan.Decode(g, env, data)
	if err != nil {
		t.Fatalf("%s: decode: %v", name, err)
	}
	if p.Explain() != p2.Explain() {
		t.Fatalf("%s: decoded plan renders differently:\n%s\nvs\n%s", name, p.Explain(), p2.Explain())
	}

	assertSame(t, name+" (seq replay)", enginetest.Run(t, eng, p2, inputs), want)

	rt, err := dist.New(cl, dist.Config{Shards: roundTripShards})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, _, err := rt.RunPlan(context.Background(), p2, inputs)
	if err != nil {
		t.Fatalf("%s: decoded plan on dist runtime: %v", name, err)
	}
	assertSame(t, name+" (dist replay)", got, want)
}

// assertSame requires two output sets to be bit-for-bit identical.
func assertSame(t *testing.T, name string, got, want map[int]*tensor.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: output %d missing or misshapen", name, id)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: output %d entry %d: %v (bits %x) != %v (bits %x)",
					name, id, i, g.Data[i], math.Float64bits(g.Data[i]),
					w.Data[i], math.Float64bits(w.Data[i]))
			}
		}
	}
}

// TestRoundTripMatMulChain covers the §8.2 chain generator at an
// executable scale.
func TestRoundTripMatMulChain(t *testing.T) {
	sz := workload.ChainSizes{
		Name: "scaled",
		A:    shape.New(100, 300), B: shape.New(300, 500),
		C: shape.New(500, 1), D: shape.New(1, 500),
		E: shape.New(500, 100), F: shape.New(500, 100),
	}
	g, err := workload.MatMulChain(sz)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mk := func(s shape.Shape) *tensor.Dense { return tensor.RandNormal(rng, int(s.Rows), int(s.Cols)) }
	inputs := map[string]*tensor.Dense{
		"A": mk(sz.A), "B": mk(sz.B), "C": mk(sz.C),
		"D": mk(sz.D), "E": mk(sz.E), "F": mk(sz.F),
	}
	assertRoundTrip(t, "matmul-chain", costmodel.LocalTest(3), g, inputs)
}

// TestRoundTripFFNN covers the three FFNN generators (W2 update, full
// backprop, three-pass) at a scaled size.
func TestRoundTripFFNN(t *testing.T) {
	cfg := workload.ScaledFFNN(workload.PaperFFNN(80000), 500)
	gens := map[string]func(workload.FFNNConfig) (*core.Graph, error){
		"w2update": workload.FFNNW2Update,
		"backprop": workload.FFNNBackprop,
		"3pass":    workload.FFNNThreePass,
	}
	for name, gen := range gens {
		g, err := gen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rng := rand.New(rand.NewSource(3))
		assertRoundTrip(t, "ffnn-"+name, costmodel.LocalTest(3), g, workload.FFNNInputs(rng, cfg))
	}
}

// TestRoundTripBlockInverse covers the two-level block-inverse generator.
func TestRoundTripBlockInverse(t *testing.T) {
	cfg := workload.BlockInverseConfig{Outer: 40, Inner1: 16, Inner2: 24, BlockFormat: format.NewSingle()}
	g, err := workload.BlockInverse2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inputs, _ := workload.BlockInverseInputs(rand.New(rand.NewSource(1)), cfg)
	assertRoundTrip(t, "block-inverse", costmodel.LocalTest(3), g, inputs)
}

// TestRoundTripSparse covers the sparse-input path (CSR forward layer),
// whose plans exercise the CSR-consuming implementations.
func TestRoundTripSparse(t *testing.T) {
	g := core.NewGraph()
	x := g.Input("X", shape.New(200, 3000), 0.01, format.NewCSRSingle())
	w1 := g.Input("W1", shape.New(3000, 80), 1, format.NewRowStrip(1000))
	z1 := g.MustApply(op.Op{Kind: op.MatMul}, x, w1)
	g.MustApply(op.Op{Kind: op.ReLU}, z1)
	rng := rand.New(rand.NewSource(2))
	inputs := map[string]*tensor.Dense{
		"X":  tensor.RandSparse(rng, 200, 3000, 0.01),
		"W1": tensor.RandNormal(rng, 3000, 80),
	}
	assertRoundTrip(t, "sparse-csr-forward", costmodel.LocalTest(3), g, inputs)
}

// TestRoundTripPaperScale covers the generators whose paper-scale inputs
// cannot be materialized (the §2.1 motivating chain, the Figure 4 size
// sets, the §8.4 optimizer-scaling families): the round-tripped plan
// must simulate to the exact same report and render the same physical
// plan as the original lowering.
func TestRoundTripPaperScale(t *testing.T) {
	graphs := map[string]func() (*core.Graph, error){
		"motivating": workload.MotivatingChain,
		"sizeset1":   func() (*core.Graph, error) { return workload.MatMulChain(workload.ChainSizeSets()[0]) },
		"tree":       func() (*core.Graph, error) { return workload.ScaleGraph(workload.ScaleTree, 2) },
		"dag1":       func() (*core.Graph, error) { return workload.ScaleGraph(workload.ScaleDAG1, 2) },
		"dag2":       func() (*core.Graph, error) { return workload.ScaleGraph(workload.ScaleDAG2, 2) },
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	for name, gen := range graphs {
		g, err := gen()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ann, err := core.Optimize(g, env)
		if err != nil {
			t.Fatalf("%s: optimize: %v", name, err)
		}
		p, err := plan.Lower(g, env, ann)
		if err != nil {
			t.Fatalf("%s: lower: %v", name, err)
		}
		want, err := engine.SimulatePlan(p, env)
		if err != nil {
			t.Fatalf("%s: simulate: %v", name, err)
		}
		data, err := plan.Encode(p, env)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		p2, err := plan.Decode(g, env, data)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if p.Explain() != p2.Explain() {
			t.Fatalf("%s: decoded plan renders differently", name)
		}
		got, err := engine.SimulatePlan(p2, env)
		if err != nil {
			t.Fatalf("%s: simulate decoded: %v", name, err)
		}
		// Optimizer wall time is a property of the search, not of the
		// serialized decisions, so a decoded plan reports zero there.
		got.OptSeconds, want.OptSeconds = 0, 0
		if got != want {
			t.Fatalf("%s: decoded plan simulates to %+v, original %+v", name, got, want)
		}
	}
}
