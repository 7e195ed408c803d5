package workload

import (
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/tensor"
)

// TestMatMulChainNumerics executes a scaled-down instance of the §8.2
// chain end to end and checks the result against plain kernels.
func TestMatMulChainNumerics(t *testing.T) {
	sz := ChainSizes{
		Name: "scaled",
		A:    shape.New(100, 300), B: shape.New(300, 500),
		C: shape.New(500, 1), D: shape.New(1, 500),
		E: shape.New(500, 100), F: shape.New(500, 100),
	}
	g, err := MatMulChain(sz)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEnv(costmodel.LocalTest(3), format.All())
	ann, err := core.Optimize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	mk := func(s shape.Shape) *tensor.Dense {
		return tensor.RandNormal(rng, int(s.Rows), int(s.Cols))
	}
	ins := map[string]*tensor.Dense{
		"A": mk(sz.A), "B": mk(sz.B), "C": mk(sz.C),
		"D": mk(sz.D), "E": mk(sz.E), "F": mk(sz.F),
	}
	eng := engine.New(e.Cluster)
	outs := enginetest.Run(t, eng, enginetest.Lower(t, e, ann), ins)
	t1 := tensor.MatMul(ins["A"], ins["B"])
	t2 := tensor.MatMul(ins["C"], ins["D"])
	want := tensor.MatMul(
		tensor.MatMul(tensor.MatMul(t1, ins["E"]), tensor.MatMul(t1, t2)),
		tensor.MatMul(t2, ins["F"]))
	sink := g.Sinks()[0]
	if diff := tensor.MaxAbsDiff(outs[sink.ID], want); diff > 1e-6 {
		t.Errorf("chain result deviates by %g", diff)
	}
}

// TestSparseFFNNForwardNumerics runs a scaled sparse-input FFNN forward
// layer through a sparse-aware plan and checks numerics.
func TestSparseFFNNForwardNumerics(t *testing.T) {
	const (
		batch    = 200
		features = 3000
		hidden   = 80
	)
	g := core.NewGraph()
	x := g.Input("X", shape.New(batch, features), 0.01, format.NewCSRSingle())
	w1 := g.Input("W1", shape.New(features, hidden), 1, format.NewRowStrip(1000))
	z1 := g.MustApply(op.Op{Kind: op.MatMul}, x, w1)
	g.MustApply(op.Op{Kind: op.ReLU}, z1)

	e := core.NewEnv(costmodel.LocalTest(3), format.All())
	ann, err := core.Optimize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	// The optimizer should keep X sparse rather than densify 4.8 MB of
	// mostly-zeros: some vertex must use a CSR-consuming implementation.
	usesSparse := false
	for id, im := range ann.VertexImpl {
		_ = id
		if im != nil && (im.Name == "mm-bcast-csr-rowstrip-agg" || im.Name == "mm-csr-single-single" ||
			im.Name == "mm-csr-rowstrip-bcast-single") {
			usesSparse = true
		}
	}
	if !usesSparse {
		t.Log("plan:", ann.Describe())
		t.Error("optimizer did not exploit the sparse input")
	}
	rng := rand.New(rand.NewSource(2))
	xm := tensor.RandSparse(rng, batch, features, 0.01)
	wm := tensor.RandNormal(rng, features, hidden)
	eng := engine.New(e.Cluster)
	outs := enginetest.Run(t, eng, enginetest.Lower(t, e, ann), map[string]*tensor.Dense{"X": xm, "W1": wm})
	want := tensor.K{}.ReLU(tensor.MatMul(xm, wm))
	sink := g.Sinks()[0]
	if diff := tensor.MaxAbsDiff(outs[sink.ID], want); diff > 1e-8 {
		t.Errorf("sparse forward deviates by %g", diff)
	}
}

// TestFFNNBackpropSmallScaleNumerics checks a whole scaled training step
// (forward + full backprop with updates) against the reference kernels.
func TestFFNNBackpropSmallScaleNumerics(t *testing.T) {
	cfg := ScaledFFNN(PaperFFNN(80000), 500)
	g, err := FFNNBackprop(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEnv(costmodel.LocalTest(3), format.All())
	ann, err := core.Optimize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	ins := FFNNInputs(rng, cfg)
	eng := engine.New(e.Cluster)
	outs := enginetest.Run(t, eng, enginetest.Lower(t, e, ann), ins)
	// Reference: recompute the W3 update with plain kernels.
	z1 := tensor.K{}.AddBias(tensor.MatMul(ins["X"], ins["W1"]), ins["B1"])
	a1 := tensor.K{}.ReLU(z1)
	z2 := tensor.K{}.AddBias(tensor.MatMul(a1, ins["W2"]), ins["B2"])
	a2 := tensor.K{}.ReLU(z2)
	z3 := tensor.K{}.AddBias(tensor.MatMul(a2, ins["W3"]), ins["B3"])
	p := tensor.K{}.Softmax(z3)
	d3 := tensor.K{}.Sub(p, ins["Y"])
	gw3 := tensor.MatMul(tensor.K{}.Transpose(a2), d3)
	lr := cfg.LearningRate / float64(cfg.Batch)
	wantW3 := tensor.K{}.Sub(ins["W3"], tensor.K{}.Scale(gw3, lr))

	// Find the W3-update sink: the Sub vertex consuming source W3.
	w3v := g.ByName("W3")
	var w3New int = -1
	for _, out := range w3v.Outs {
		if out.Op.Kind.String() == "sub" {
			w3New = out.ID
		}
	}
	if w3New < 0 {
		t.Fatal("no W3 update vertex found")
	}
	got, ok := outs[w3New]
	if !ok {
		t.Fatalf("vertex %d is not a sink", w3New)
	}
	if diff := tensor.MaxAbsDiff(got, wantW3); diff > 1e-7 {
		t.Errorf("updated W3 deviates by %g", diff)
	}
}
