package workload

import (
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/shape"
	"matopt/internal/tensor"
)

func env(workers int) *core.Env {
	return core.NewEnv(costmodel.EC2R5D(workers), format.All())
}

func TestMotivatingChainBuilds(t *testing.T) {
	g, err := MotivatingChain()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumOps() != 2 || len(g.Sources()) != 3 {
		t.Fatalf("ops=%d sources=%d", g.NumOps(), len(g.Sources()))
	}
	if _, err := core.Optimize(g, env(5)); err != nil {
		t.Fatal(err)
	}
}

func TestFFNNThreePassHas57Vertices(t *testing.T) {
	g, err := FFNNThreePass(PaperFFNN(80000))
	if err != nil {
		t.Fatal(err)
	}
	if n := len(g.Vertices); n != 57 {
		t.Fatalf("three-pass FFNN has %d vertices, paper reports 57", n)
	}
	if g.IsTree() {
		t.Fatal("the FFNN graph must not be a tree (shared weights/activations)")
	}
}

func TestFFNNW2UpdateOptimizes(t *testing.T) {
	for _, hidden := range []int64{10000, 40000} {
		g, err := FFNNW2Update(PaperFFNN(hidden))
		if err != nil {
			t.Fatalf("hidden %d: %v", hidden, err)
		}
		ann, err := core.Optimize(g, env(10))
		if err != nil {
			t.Fatalf("hidden %d: %v", hidden, err)
		}
		if err := ann.Verify(env(10)); err != nil {
			t.Fatalf("hidden %d: %v", hidden, err)
		}
	}
}

func TestChainSizeSetsShapesCompose(t *testing.T) {
	sets := ChainSizeSets()
	if len(sets) != 3 {
		t.Fatalf("want 3 size sets, got %d", len(sets))
	}
	for _, sz := range sets {
		g, err := MatMulChain(sz)
		if err != nil {
			t.Fatalf("%s: %v", sz.Name, err)
		}
		if g.NumOps() != 7 {
			t.Errorf("%s: %d ops, want 7 (T1, T2, T1E, T1T2, left, T2F, O)", sz.Name, g.NumOps())
		}
		if g.IsTree() {
			t.Errorf("%s: chain must share T1 and T2", sz.Name)
		}
	}
}

func TestBlockInverseBuildsAndOptimizes(t *testing.T) {
	g, err := BlockInverse2(PaperBlockInverse())
	if err != nil {
		t.Fatal(err)
	}
	if g.IsTree() {
		t.Fatal("block inverse must share sub-expressions")
	}
	ann, err := core.Optimize(g, env(10))
	if err != nil {
		t.Fatal(err)
	}
	if err := ann.Verify(env(10)); err != nil {
		t.Fatal(err)
	}
	if _, err := BlockInverse2(BlockInverseConfig{Outer: 10, Inner1: 3, Inner2: 3}); err == nil {
		t.Error("mismatched inner split must be rejected")
	}
}

// The block-inverse graph must actually invert matrices: execute a
// scaled-down instance and check the reconstructed inverse blocks.
func TestBlockInverseNumerics(t *testing.T) {
	cfg := BlockInverseConfig{Outer: 40, Inner1: 16, Inner2: 24, BlockFormat: format.NewSingle()}
	g, err := BlockInverse2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	e := env(2)
	ann, err := core.Optimize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	// A full 2n×2n well-conditioned matrix, sliced into the inputs.
	inputs, full := BlockInverseInputs(rand.New(rand.NewSource(1)), cfg)
	n := int(cfg.Outer)
	// D̄ = S⁻¹ is the bottom-right block of the true inverse. Find the
	// outer Schur inverse vertex: the last Inverse op in the graph. It is
	// not a sink, so ask the run to keep its relation alive.
	var sinvID = -1
	for _, v := range g.Vertices {
		if !v.IsSource && v.Op.Kind.String() == "inverse" {
			sinvID = v.ID
		}
	}
	outs := enginetest.Run(t, engine.New(e.Cluster), enginetest.Lower(t, e, ann, sinvID), inputs)
	wantInv, err := tensor.Inverse(full)
	if err != nil {
		t.Fatal(err)
	}
	wantD := wantInv.Slice(n, 2*n, n, 2*n)
	if diff := tensor.MaxAbsDiff(outs[sinvID], wantD); diff > 1e-6 {
		t.Errorf("D̄ block deviates from the true inverse by %g", diff)
	}
}

func TestScaleGraphs(t *testing.T) {
	for _, kind := range []ScaleKind{ScaleTree, ScaleDAG1, ScaleDAG2} {
		prev := 0
		for scale := 1; scale <= 3; scale++ {
			g, err := ScaleGraph(kind, scale)
			if err != nil {
				t.Fatalf("%v scale %d: %v", kind, scale, err)
			}
			if n := len(g.Vertices); n <= prev {
				t.Errorf("%v: vertex count not growing (%d → %d)", kind, prev, n)
			} else {
				prev = n
			}
			if kind == ScaleTree && !g.IsTree() {
				t.Errorf("ScaleTree scale %d is not a tree", scale)
			}
			if kind != ScaleTree && g.IsTree() {
				t.Errorf("%v scale %d should share T1×T2", kind, scale)
			}
		}
	}
	if _, err := ScaleGraph(ScaleTree, 0); err == nil {
		t.Error("scale 0 must be rejected")
	}
}

func TestScaleGraphsOptimize(t *testing.T) {
	for _, kind := range []ScaleKind{ScaleTree, ScaleDAG1, ScaleDAG2} {
		g, err := ScaleGraph(kind, 2)
		if err != nil {
			t.Fatal(err)
		}
		ann, err := core.Optimize(g, env(10))
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if err := ann.Verify(env(10)); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}

func TestSyntheticAmazonCat(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x, y := SyntheticAmazonCat(rng, 50, 10000, 20)
	d := x.Density()
	if d < AmazonCatDensity/3 || d > AmazonCatDensity*3 {
		t.Errorf("synthetic density %g, want ≈ %g", d, AmazonCatDensity)
	}
	for i := 0; i < y.Rows; i++ {
		nnz := 0
		for j := 0; j < y.Cols; j++ {
			if y.At(i, j) != 0 {
				nnz++
			}
		}
		if nnz != 1 {
			t.Fatalf("label row %d has %d non-zeros, want one-hot", i, nnz)
		}
	}
}

func TestScaledFFNNExecutes(t *testing.T) {
	c := ScaledFFNN(PaperFFNN(80000), 400)
	g, err := FFNNW2Update(c)
	if err != nil {
		t.Fatal(err)
	}
	e := core.NewEnv(costmodel.LocalTest(3), format.All())
	ann, err := core.Optimize(g, e)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	eng := engine.New(e.Cluster)
	outs := enginetest.Run(t, eng, enginetest.Lower(t, e, ann), FFNNInputs(rng, c))
	sink := g.Sinks()[0]
	got := outs[sink.ID]
	if int64(got.Rows) != c.Hidden || int64(got.Cols) != c.Hidden {
		t.Fatalf("updated W2 is %dx%d, want %dx%d", got.Rows, got.Cols, c.Hidden, c.Hidden)
	}
	if got.Density() == 0 {
		t.Fatal("updated W2 is all zeros")
	}
}

func TestAmazonCatConfigFormats(t *testing.T) {
	dense := AmazonCatConfig(10000, 4000, false)
	if dense.InputFormat != format.NewColStrip(1000) || dense.InputDensity != 1.7e-4 {
		t.Errorf("dense config = %+v", dense)
	}
	sp := AmazonCatConfig(10000, 4000, true)
	if sp.InputFormat != format.NewCSRSingle() {
		t.Errorf("sparse config input format = %v", sp.InputFormat)
	}
	// The sparse X fits a single CSR tuple: 10⁴×597540 at 1.7e-4.
	s := shape.New(10000, 597540)
	if !sp.InputFormat.Valid(s, sp.InputDensity, costmodel.EC2R5DN(2).MaxTupleBytes) {
		t.Error("sparse AmazonCat X should fit one CSR tuple")
	}
}
