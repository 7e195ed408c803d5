package engine

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"matopt/internal/benchkit"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

func testEnv(workers int) *core.Env {
	return core.NewEnv(costmodel.LocalTest(workers), format.All())
}

// oracleTol is the largest max-abs error, relative to the largest
// expected entry, an engine output may have against the oracle.
const oracleTol = 1e-7

// checkOracle holds every sink in got against benchkit.Eval — plain
// loops over whole matrices that share no code with the operator table
// or the tensor kernels under test.
func checkOracle(t *testing.T, name string, g *core.Graph, inputs map[string]*tensor.Dense, got map[int]*tensor.Dense) {
	t.Helper()
	asMat := func(m *tensor.Dense) *benchkit.Mat {
		return &benchkit.Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
	}
	in := make(map[string]*benchkit.Mat, len(inputs))
	for k, m := range inputs {
		in[k] = asMat(m)
	}
	want, err := benchkit.Eval(g, in)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	for id, w := range want {
		if got[id] == nil {
			t.Fatalf("%s: sink v%d missing from the engine's outputs", name, id)
		}
		if e := benchkit.RelErr(asMat(got[id]), w); e > oracleTol {
			t.Errorf("%s: sink v%d differs from the oracle by %.3g relative (limit %g)", name, id, e, oracleTol)
		}
	}
}

// runCollect lowers ann in env — the environment it was optimized in —
// runs it on e and collects every sink. (internal/enginetest is the same
// helper for tests outside this package, which it cannot serve without
// an import cycle.)
func runCollect(e *Engine, env *core.Env, ann *core.Annotation, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	p, err := plan.Lower(ann.Graph, env, ann)
	if err != nil {
		return nil, err
	}
	return e.RunPlan(context.Background(), p, inputs)
}

// checkPlan runs an annotated plan on the engine and holds every sink
// against the oracle.
func checkPlan(t *testing.T, g *core.Graph, env *core.Env, ann *core.Annotation, inputs map[string]*tensor.Dense) {
	t.Helper()
	if err := ann.Verify(env); err != nil {
		t.Fatalf("annotation invalid: %v", err)
	}
	e := New(env.Cluster)
	got, err := runCollect(e, env, ann, inputs)
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	checkOracle(t, "plan", g, inputs, got)
	if e.Stats().FLOPs == 0 {
		t.Error("execution recorded no floating point work")
	}
}

// load scans m into format f as a one-shard relation on the engine's
// local mover.
func load(e *Engine, m *tensor.Dense, f format.Format) (*Relation, error) {
	return Scan(local{e}, 0, m, f, e.Cluster.MaxTupleBytes)
}

// relayout re-lays-out r into the target format on the engine's local
// mover.
func relayout(e *Engine, r *Relation, target format.Format) (*Relation, error) {
	return Relayout(local{e}, 0, 0, r, target, e.Cluster.MaxTupleBytes)
}

// runOp runs one named operator of the table on the engine's one-shard
// mover over already-loaded relations and collects the result.
func runOp(t *testing.T, e *Engine, name string, o op.Op, outShape shape.Shape, rels []*Relation) *tensor.Dense {
	t.Helper()
	run, ok := operators[name]
	if !ok {
		t.Fatalf("no operator %q", name)
	}
	out, err := run(local{e}, &plan.Node{Name: name, Op: o, OutShape: outShape}, rels)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, err := Collect(out)
	if err != nil {
		t.Fatalf("%s: collect: %v", name, err)
	}
	return got
}

func TestLoadCollectRoundTripAllFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e := New(costmodel.LocalTest(4))
	m := tensor.RandSparse(rng, 137, 211, 0.3) // ragged vs all block sizes
	for _, f := range []format.Format{
		format.NewSingle(), format.NewTile(100), format.NewRowStrip(100),
		format.NewColStrip(100), format.NewCOO(), format.NewCSRSingle(),
		format.NewCSRRowStrip(100),
	} {
		r, err := load(e, m, f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		got, err := Collect(r)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if !tensor.BitEqual(got, m) {
			t.Errorf("%v: round trip mismatch", f)
		}
	}
}

// TestRelayoutOutOfSingleCopiesOnce: re-laying out a single copies its
// payload once, into the new chunks. Assemble hands a single's matrix
// over as it is; it used to allocate a matrix it then discarded, and
// clone the payload on top, for three copies' worth of bytes.
func TestRelayoutOutOfSingleCopiesOnce(t *testing.T) {
	const n = 512
	e := New(costmodel.LocalTest(4))
	r, err := load(e, tensor.RandNormal(rand.New(rand.NewSource(3)), n, n), format.NewSingle())
	if err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := relayout(e, r, format.NewRowStrip(128)); err != nil {
				b.Fatal(err)
			}
		}
	})
	if got, payload := res.AllocedBytesPerOp(), int64(n*n*8); got > payload*11/10 {
		t.Fatalf("single → rowstrip[128] of a %d×%d matrix allocates %d B, want at most 1.1 × its %d B",
			n, n, got, payload)
	}
}

func TestLoadRejectsInvalidFormat(t *testing.T) {
	e := New(costmodel.LocalTest(4))
	m := tensor.NewDense(10, 10)
	if _, err := load(e, m, format.NewTile(1000)); err == nil {
		t.Error("tile[1000] on a 10x10 matrix must fail to load")
	}
}

func TestTransformBetweenFormats(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e := New(costmodel.LocalTest(4))
	m := tensor.RandNormal(rng, 300, 500)
	r, err := load(e, m, format.NewTile(100))
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []format.Format{
		format.NewRowStrip(100), format.NewColStrip(100), format.NewSingle(),
		format.NewCSRSingle(), format.NewTile(100),
	} {
		out, err := relayout(e, r, target)
		if err != nil {
			t.Fatalf("to %v: %v", target, err)
		}
		got, err := Collect(out)
		if err != nil {
			t.Fatalf("to %v: %v", target, err)
		}
		if !tensor.BitEqual(got, m) {
			t.Errorf("transform to %v corrupted data", target)
		}
	}
}

func TestOptimizedChainExecutesCorrectly(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := core.NewGraph()
	a := g.Input("a", shape.New(160, 300), 1, format.NewRowStrip(100))
	b := g.Input("b", shape.New(300, 160), 1, format.NewColStrip(100))
	c := g.Input("c", shape.New(160, 500), 1, format.NewColStrip(100))
	ab := g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	g.MustApply(op.Op{Kind: op.MatMul}, ab, c)
	env := testEnv(4)
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Dense{
		"a": tensor.RandNormal(rng, 160, 300),
		"b": tensor.RandNormal(rng, 300, 160),
		"c": tensor.RandNormal(rng, 160, 500),
	}
	checkPlan(t, g, env, ann, inputs)
}

func TestEveryMatMulExecutorAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	env := testEnv(4)
	aMat := tensor.RandNormal(rng, 200, 300)
	bMat := tensor.RandNormal(rng, 300, 200)
	aSparse := tensor.RandSparse(rng, 200, 300, 0.05)
	want := tensor.MatMul(aMat, bMat)
	wantSparse := tensor.MatMul(aSparse, bMat)

	cases := []struct {
		impl   string
		fa, fb format.Format
		spA    bool
	}{
		{"mm-single-single", format.NewSingle(), format.NewSingle(), false},
		{"mm-bcast-single-colstrip", format.NewSingle(), format.NewColStrip(100), false},
		{"mm-rowstrip-bcast-single", format.NewRowStrip(100), format.NewSingle(), false},
		{"mm-rowstrip-colstrip", format.NewRowStrip(100), format.NewColStrip(100), false},
		{"mm-colstrip-rowstrip-agg", format.NewColStrip(100), format.NewRowStrip(100), false},
		{"mm-tile-tile-shuffle", format.NewTile(100), format.NewTile(100), false},
		{"mm-tile-tile-bcast", format.NewTile(100), format.NewTile(100), false},
		{"mm-bcast-single-tile", format.NewSingle(), format.NewTile(100), false},
		{"mm-tile-bcast-single", format.NewTile(100), format.NewSingle(), false},
		{"mm-csr-single-single", format.NewCSRSingle(), format.NewSingle(), true},
		{"mm-bcast-csr-rowstrip-agg", format.NewCSRSingle(), format.NewRowStrip(100), true},
		{"mm-csr-rowstrip-bcast-single", format.NewCSRRowStrip(100), format.NewSingle(), true},
		{"mm-bcast-coo-single", format.NewCOO(), format.NewSingle(), true},
	}
	for _, c := range cases {
		e := New(env.Cluster)
		am := aMat
		ref := want
		if c.spA {
			am = aSparse
			ref = wantSparse
		}
		ra, err := load(e, am, c.fa)
		if err != nil {
			t.Fatalf("%s: load a: %v", c.impl, err)
		}
		rb, err := load(e, bMat, c.fb)
		if err != nil {
			t.Fatalf("%s: load b: %v", c.impl, err)
		}
		got := runOp(t, e, c.impl, op.Op{Kind: op.MatMul}, shape.New(200, 200), []*Relation{ra, rb})
		if diff := tensor.MaxAbsDiff(got, ref); diff > 1e-8 {
			t.Errorf("%s: result deviates by %g", c.impl, diff)
		}
	}
}

// TestRunsLeaveStorageEmpty: a finished run's Storage owns nothing, and
// every array the run drew from the tensor free lists has gone back to
// them but its outputs. Outputs fails a run that leaves anything owned,
// so each run here fails if a step, a release at the last consumer or
// Outputs itself skips a Free; the free lists' Outstanding count fails
// one that draws an array no Storage or operator gives back. The runs:
// RunPlan keeping an intermediate on top of its sink; the benchmark's
// chain_seq plan, whose to-csr-single re-layout and
// mm-bcast-csr-rowstrip-agg column slices are CSR arrays; and a
// RunAdaptive whose estimate drifts, so that a halted round hands back
// its live values and the next scans them in again, once more with a
// CSR scan still live at the halt.
func TestRunsLeaveStorageEmpty(t *testing.T) {
	// returned checks that the free lists hold what they held at before,
	// once the outputs are released.
	returned := func(t *testing.T, before int64, outs map[int]*tensor.Dense) {
		t.Helper()
		for _, m := range outs {
			tensor.Release(m)
		}
		if kept := tensor.Outstanding() - before; kept != 0 {
			t.Fatalf("the run kept %d arrays it drew from the free lists", kept)
		}
	}
	t.Run("seq RunPlan", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		g := core.NewGraph()
		a := g.Input("a", shape.New(160, 300), 1, format.NewRowStrip(100))
		b := g.Input("b", shape.New(300, 160), 1, format.NewColStrip(100))
		c := g.Input("c", shape.New(160, 500), 1, format.NewColStrip(100))
		ab := g.MustApply(op.Op{Kind: op.MatMul}, a, b)
		g.MustApply(op.Op{Kind: op.MatMul}, ab, c)
		env := testEnv(4)
		ann, err := core.Optimize(g, env)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Lower(g, env, ann, ab.ID)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]*tensor.Dense{
			"a": tensor.RandNormal(rng, 160, 300),
			"b": tensor.RandNormal(rng, 300, 160),
			"c": tensor.RandNormal(rng, 160, 500),
		}
		before := tensor.Outstanding()
		outs, err := New(env.Cluster).RunPlan(context.Background(), p, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 2 {
			t.Fatalf("got %d outputs, want the sink and the kept intermediate", len(outs))
		}
		returned(t, before, outs)
	})
	t.Run("chain_seq plan", func(t *testing.T) {
		g, inputs, err := workload.Spec{Workload: "chain", Scale: 40}.Normalized().Build()
		if err != nil {
			t.Fatal(err)
		}
		env := testEnv(2)
		ann, err := core.Optimize(g, env)
		if err != nil {
			t.Fatal(err)
		}
		p, err := plan.Lower(g, env, ann)
		if err != nil {
			t.Fatal(err)
		}
		names := make(map[string]bool)
		for _, n := range p.Nodes {
			names[n.Name] = true
		}
		if !names["to-csr-single"] || !names["mm-bcast-csr-rowstrip-agg"] {
			t.Fatalf("the chain_seq plan no longer runs a CSR product:\n%s", p.Explain())
		}
		before := tensor.Outstanding()
		outs, err := New(env.Cluster).RunPlan(context.Background(), p, inputs)
		if err != nil {
			t.Fatal(err)
		}
		returned(t, before, outs)
	})
	t.Run("drifting RunAdaptive", func(t *testing.T) {
		g, env, inputs, _ := driftGraph("b")
		before := tensor.Outstanding()
		res, err := New(env.Cluster).RunAdaptive(g, env, inputs, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reoptimized == 0 {
			t.Fatal("no round halted")
		}
		returned(t, before, res.Outputs)
	})
	t.Run("RunAdaptive halting while a scan is live", func(t *testing.T) {
		// driftGraph's Hadamard product drifts, and the sink also reads
		// a, so a's CSR scan is still live when the first round halts.
		g, env, inputs, base := driftGraph("b")
		had, a := g.Vertices[2], g.Vertices[0]
		g.MustApply(op.Op{Kind: op.Add}, had, a)
		kc := tensor.K{}
		want := kc.Add(kc.Hadamard(base, base), base)
		before := tensor.Outstanding()
		res, err := New(env.Cluster).RunAdaptive(g, env, inputs, 1.2)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reoptimized == 0 {
			t.Fatal("no round halted")
		}
		if got := res.Outputs[g.Sinks()[1].ID]; tensor.MaxAbsDiff(got, want) > 1e-9 {
			t.Fatalf("the sum deviates by %g", tensor.MaxAbsDiff(got, want))
		}
		returned(t, before, res.Outputs)
	})
	t.Run("Outputs refuses", func(t *testing.T) {
		e := New(costmodel.LocalTest(2))
		r, err := load(e, tensor.RandNormal(rand.New(rand.NewSource(4)), 8, 8), format.NewTile(4))
		if err != nil {
			t.Fatal(err)
		}
		st := NewStorage()
		st.Own(r)
		if _, err := Outputs(st, nil, nil); !errors.Is(err, core.ErrInternal) {
			t.Errorf("a Storage still owning a relation: %v, want core.ErrInternal", err)
		}
		if _, err := Outputs(st, []int{0}, nil); !errors.Is(err, core.ErrInternal) {
			t.Errorf("a kept vertex without a relation: %v, want core.ErrInternal", err)
		}
		if _, err := Outputs(st, []int{0}, map[int]*Relation{0: r}); err != nil {
			t.Errorf("freeing the one owned relation: %v", err)
		}
	})
}

func TestFFNNStyleDAGExecutes(t *testing.T) {
	// A miniature forward+backward pass exercising sharing, transpose,
	// relu/relugrad, hadamard and softmax together.
	rng := rand.New(rand.NewSource(5))
	g := core.NewGraph()
	x := g.Input("x", shape.New(200, 120), 1, format.NewRowStrip(100))
	w1 := g.Input("w1", shape.New(120, 90), 1, format.NewSingle())
	w2 := g.Input("w2", shape.New(90, 10), 1, format.NewSingle())
	y := g.Input("y", shape.New(200, 10), 1, format.NewSingle())

	a1 := g.MustApply(op.Op{Kind: op.MatMul}, x, w1)
	h1 := g.MustApply(op.Op{Kind: op.ReLU}, a1)
	a2 := g.MustApply(op.Op{Kind: op.MatMul}, h1, w2)
	p := g.MustApply(op.Op{Kind: op.Softmax}, a2)
	d2 := g.MustApply(op.Op{Kind: op.Sub}, p, y)
	h1t := g.MustApply(op.Op{Kind: op.Transpose}, h1)
	gw2 := g.MustApply(op.Op{Kind: op.MatMul}, h1t, d2)
	g.MustApply(op.Op{Kind: op.ScalarMul, Scalar: 0.01}, gw2)

	env := testEnv(4)
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	inputs := map[string]*tensor.Dense{
		"x":  tensor.RandNormal(rng, 200, 120),
		"w1": tensor.RandNormal(rng, 120, 90),
		"w2": tensor.RandNormal(rng, 90, 10),
		"y":  tensor.RandNormal(rng, 200, 10),
	}
	checkPlan(t, g, env, ann, inputs)
}

func TestBlockInverseStyleGraphExecutes(t *testing.T) {
	// ((D − C·A⁻¹·B))⁻¹ — the core of the Graybill two-level inverse.
	rng := rand.New(rand.NewSource(6))
	g := core.NewGraph()
	aIn := g.Input("A", shape.New(60, 60), 1, format.NewSingle())
	bIn := g.Input("B", shape.New(60, 80), 1, format.NewSingle())
	cIn := g.Input("C", shape.New(80, 60), 1, format.NewSingle())
	dIn := g.Input("D", shape.New(80, 80), 1, format.NewSingle())
	ainv := g.MustApply(op.Op{Kind: op.Inverse}, aIn)
	cainv := g.MustApply(op.Op{Kind: op.MatMul}, cIn, ainv)
	cainvb := g.MustApply(op.Op{Kind: op.MatMul}, cainv, bIn)
	schur := g.MustApply(op.Op{Kind: op.Sub}, dIn, cainvb)
	g.MustApply(op.Op{Kind: op.Inverse}, schur)

	env := testEnv(4)
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(r, c int, diag float64) *tensor.Dense {
		m := tensor.RandNormal(rng, r, c)
		for i := 0; i < r && i < c; i++ {
			m.Set(i, i, m.At(i, i)+diag)
		}
		return m
	}
	inputs := map[string]*tensor.Dense{
		"A": mk(60, 60, 60), "B": mk(60, 80, 0), "C": mk(80, 60, 0), "D": mk(80, 80, 200),
	}
	checkPlan(t, g, env, ann, inputs)
}

func TestGreedyAllTilePlanMatchesOptimalNumerically(t *testing.T) {
	// Two different physical plans for the same logical computation must
	// agree on the answer.
	rng := rand.New(rand.NewSource(7))
	g := core.NewGraph()
	a := g.Input("a", shape.New(250, 250), 1, format.NewTile(100))
	b := g.Input("b", shape.New(250, 250), 1, format.NewTile(100))
	ab := g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	g.MustApply(op.Op{Kind: op.Add}, ab, a)

	env := testEnv(4)
	inputs := map[string]*tensor.Dense{
		"a": tensor.RandNormal(rng, 250, 250),
		"b": tensor.RandNormal(rng, 250, 250),
	}
	auto, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]format.Format{}
	for _, v := range g.Vertices {
		if !v.IsSource {
			want[v.ID] = format.NewTile(100)
		}
	}
	tiled, err := core.GreedyAnnotate(g, env, want)
	if err != nil {
		t.Fatal(err)
	}
	e := New(env.Cluster)
	got1, err := runCollect(e, env, auto, inputs)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := runCollect(e, env, tiled, inputs)
	if err != nil {
		t.Fatal(err)
	}
	sink := g.Sinks()[0].ID
	if diff := tensor.MaxAbsDiff(got1[sink], got2[sink]); diff > 1e-8 {
		t.Errorf("plans disagree by %g", diff)
	}
}

func TestSimulateMatchesAnnotationTotal(t *testing.T) {
	g := core.NewGraph()
	a := g.Input("a", shape.New(10000, 30000), 1, format.NewTile(1000))
	b := g.Input("b", shape.New(30000, 50000), 1, format.NewTile(1000))
	c := g.Input("c", shape.New(50000, 1), 1, format.NewSingle())
	abv := g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	g.MustApply(op.Op{Kind: op.MatMul}, abv, c)
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Simulate(ann, env)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rep.Seconds-ann.Total()) > 1e-9*ann.Total() {
		t.Errorf("simulate %.6f vs annotation total %.6f", rep.Seconds, ann.Total())
	}
	if rep.PeakWorkerBytes <= 0 || rep.Features.FLOPs <= 0 {
		t.Errorf("report not populated: %+v", rep)
	}
}

func TestSimulateDetectsInfeasiblePlanAsFail(t *testing.T) {
	// A shuffle-join tile multiply over a huge inner dimension spills
	// more intermediate data than a small cluster's scratch: annotate on
	// a big cluster, simulate on a small one, expect the paper's Fail.
	g := core.NewGraph()
	a := g.Input("a", shape.New(40000, 60000), 1, format.NewTile(1000))
	b := g.Input("b", shape.New(60000, 200000), 1, format.NewTile(1000))
	g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	envBig := core.NewEnv(costmodel.EC2R5D(64), format.All())
	envBig.Impls[op.MatMul] = []*impl.Impl{impl.MMTileTileShuffle}
	want := map[int]format.Format{2: format.NewTile(1000)}
	ann, err := core.GreedyAnnotate(g, envBig, want)
	if err != nil {
		t.Fatal(err)
	}
	envSmall := core.NewEnv(costmodel.EC2R5D(2), format.All())
	if _, err := Simulate(ann, envSmall); err == nil {
		t.Error("a scratch-overflowing plan must Fail in simulation")
	}
	// On the big cluster the same plan fits.
	if _, err := Simulate(ann, envBig); err != nil {
		t.Errorf("the plan should fit on 64 workers: %v", err)
	}
}

// TestChunkValidityIgnoresUnusedDensity: Chunk measures a matrix's
// density only for sparse targets. Its accept/reject verdict must be the
// one Format.Valid gives with the measured density, for every format, at
// every density, on both sides of the per-tuple bound.
func TestChunkValidityIgnoresUnusedDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	formats := append(format.All(), format.NewTile(7), format.NewRowStrip(16), format.NewColStrip(16), format.NewCSRRowStrip(16))
	for _, density := range []float64{0, 0.01, 1} {
		m := tensor.RandSparse(rng, 120, 150, density)
		s := shape.New(int64(m.Rows), int64(m.Cols))
		for _, f := range formats {
			// Bounds from "nothing fits" to "everything fits", through the
			// sizes at which each format's largest tuple tips over.
			for _, bound := range []int64{0, 16, 2000, f.MaxTupleBytes(s, m.Density()) - 1, f.MaxTupleBytes(s, m.Density()), 1 << 30} {
				_, _, err := Chunk(m, f, bound)
				if want := f.Valid(s, m.Density(), bound); (err == nil) != want {
					t.Errorf("%v at density %g under %d B: Chunk err = %v, Valid(measured density) = %v", f, density, bound, err, want)
				}
			}
		}
	}
}
