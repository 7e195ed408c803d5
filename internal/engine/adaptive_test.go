package engine

import (
	"math"
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/tensor"
)

func TestMeasuredDensity(t *testing.T) {
	e := New(costmodel.LocalTest(3))
	m := tensor.FromRows([][]float64{{1, 0}, {0, 2}})
	for _, f := range []format.Format{format.NewSingle(), format.NewCSRSingle(), format.NewCOO()} {
		r, err := load(e, m, f)
		if err != nil {
			t.Fatal(err)
		}
		if d := r.MeasuredDensity(); d != 0.5 {
			t.Errorf("%v: MeasuredDensity = %v, want 0.5", f, d)
		}
	}
}

// driftGraph is a Hadamard chain over sparse inputs: the independence
// assumption under-estimates density when the operands share their
// support. Declared density 0.2 ⇒ the optimizer estimates 0.2·0.2 = 0.04
// for the product; the actual inputs share an identical support, so the
// true product density is 0.2 — a relative error of 5. base is the
// matrix both inputs hold; the second input is named bName.
func driftGraph(bName string) (g *core.Graph, env *core.Env, inputs map[string]*tensor.Dense, base *tensor.Dense) {
	g = core.NewGraph()
	s := shape.New(200, 200)
	a := g.Input("a", s, 0.2, format.NewCSRSingle())
	b := g.Input(bName, s, 0.2, format.NewCSRSingle())
	had := g.MustApply(op.Op{Kind: op.Hadamard}, a, b)
	g.MustApply(op.Op{Kind: op.ScalarMul, Scalar: 2}, had)

	env = core.NewEnv(costmodel.LocalTest(3), format.All())
	base = tensor.RandSparse(rand.New(rand.NewSource(1)), 200, 200, 0.2)
	return g, env, map[string]*tensor.Dense{"a": base, bName: base.Clone()}, base
}

// On driftGraph the adaptive executor must detect the drift,
// re-optimize, and still produce the right numbers — also when the
// caller's second input is named done-2, the name the first round's
// carried Hadamard product (vertex 2) would take.
func TestRunAdaptiveDetectsDensityDrift(t *testing.T) {
	for _, bName := range []string{"b", "done-2"} {
		g, env, inputs, base := driftGraph(bName)
		if g.Vertices[2].Op.Kind != op.Hadamard {
			t.Fatalf("vertex 2 is %v, want the carried Hadamard product", g.Vertices[2].Op.Kind)
		}
		e := New(env.Cluster)
		res, err := e.RunAdaptive(g, env, inputs, 1.2)
		if err != nil {
			t.Fatalf("second input %q: %v", bName, err)
		}
		if res.Reoptimized == 0 || len(res.Corrections) == 0 {
			t.Fatalf("second input %q: drift not detected: %+v", bName, res)
		}
		c := res.Corrections[0]
		if c.Vertex != 2 || c.RelErr <= 1.2 {
			t.Errorf("second input %q: correction %+v, want vertex 2 above the threshold", bName, c)
		}
		// Numerics must survive the re-planning.
		got := res.Outputs[g.Sinks()[0].ID]
		want := tensor.K{}.Scale(tensor.K{}.Hadamard(base, base), 2)
		if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
			t.Errorf("second input %q: adaptive result deviates by %g", bName, diff)
		}
	}
}

// With accurate estimates the adaptive executor must not re-optimize.
func TestRunAdaptiveNoDriftNoReplan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := core.NewGraph()
	s := shape.New(150, 150)
	a := g.Input("a", s, 1, format.NewTile(100))
	b := g.Input("b", s, 1, format.NewTile(100))
	mm := g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	g.MustApply(op.Op{Kind: op.ReLU}, mm)

	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	inputs := map[string]*tensor.Dense{
		// Strictly positive inputs keep every intermediate fully dense,
		// matching the declared density exactly (relu keeps density 1).
		"a": abs1(tensor.RandNormal(rng, 150, 150)),
		"b": abs1(tensor.RandNormal(rng, 150, 150)),
	}
	e := New(env.Cluster)
	res, err := e.RunAdaptive(g, env, inputs, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reoptimized != 0 {
		t.Fatalf("spurious re-optimization: %+v", res.Corrections)
	}
	sink := g.Sinks()[0].ID
	got := res.Outputs[sink]
	want := tensor.K{}.ReLU(tensor.MatMul(inputs["a"], inputs["b"]))
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Errorf("result deviates by %g", diff)
	}
	// Without a drift the one round is RunPlan on the same plan.
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := runCollect(e, env, ann, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.BitEqual(got, plain[sink]) {
		t.Error("adaptive result differs from RunPlan's in Float64bits")
	}
}

func TestRunAdaptiveRejectsBadThreshold(t *testing.T) {
	e := New(costmodel.LocalTest(2))
	if _, err := e.RunAdaptive(core.NewGraph(), nil, nil, 0.5); err == nil {
		t.Fatal("threshold < 1 accepted")
	}
}

// abs1 replaces every entry x of d by |x| + 0.1, in place.
func abs1(d *tensor.Dense) *tensor.Dense {
	for i, x := range d.Data {
		d.Data[i] = math.Abs(x) + 0.1
	}
	return d
}
