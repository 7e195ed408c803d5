package dist_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"matopt/internal/benchkit"
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

// goldenShards are the shard counts every workload is checked at: the
// degenerate single shard, an even split, and a prime count that
// misaligns with every tile grid.
var goldenShards = []int{1, 2, 7}

// goldenKernelThreads are the per-shard kernel budgets every workload is
// checked at on top of the default (machine-divided) budget: forced
// serial and an explicit multi-thread setting. Together with the serial
// and auto sequential baselines this is the
// serial-vs-blocked-vs-threaded matrix the kernel layer promises.
var goldenKernelThreads = []int{1, 3}

// compareSinks requires got to reproduce want bit for bit
// (math.Float64bits, not a tolerance).
func compareSinks(t *testing.T, name string, pp *plan.Plan, want, got map[int]*tensor.Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d sinks, baseline produced %d", name, len(got), len(want))
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("%s: sink %d missing", name, id)
		}
		if g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: sink %d is %dx%d, want %dx%d", name, id, g.Rows, g.Cols, w.Rows, w.Cols)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: sink %d entry (%d,%d): got %v (bits %x) != want %v (bits %x)\nplan:\n%s",
					name, id, i/w.Cols, i%w.Cols,
					g.Data[i], math.Float64bits(g.Data[i]),
					w.Data[i], math.Float64bits(w.Data[i]), pp.Ann.Describe())
			}
		}
	}
}

// oracleTol is the largest max-abs error, relative to the largest
// expected entry, an engine output may have against the oracle.
const oracleTol = 1e-7

// checkOracle holds every sink in got against benchkit.Eval. Both
// engines interpret one operator table, so their agreeing bit for bit
// says nothing about either being right; the oracle's plain loops over
// whole matrices share no code with the table or the tensor kernels.
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
			t.Fatalf("%s: sink %d missing from the engine's outputs", name, id)
		}
		if e := benchkit.RelErr(asMat(got[id]), w); e > oracleTol {
			t.Errorf("%s: sink %d differs from the oracle by %.3g relative (limit %g)", name, id, e, oracleTol)
		}
	}
}

// assertBitIdentical executes pp on the sequential engine (serial and
// threaded kernels) and on the dist runtime at every golden shard count
// and kernel-thread budget, requiring every sink to be bit-for-bit
// identical to the fully serial baseline — and that baseline to agree
// with the independent oracle.
func assertBitIdentical(t *testing.T, name string, cl costmodel.Cluster, pp *plan.Plan, inputs map[string]*tensor.Dense) {
	t.Helper()
	// The baseline: sequential engine, kernels forced serial — the
	// reference every blocked and threaded configuration must reproduce.
	serial := engine.New(cl)
	serial.KernelThreads = 1
	want := enginetest.Run(t, serial, pp, inputs)
	checkOracle(t, name, pp.Graph, inputs, want)
	// Sequential engine with auto (whole-machine) kernel threads.
	got := enginetest.Run(t, engine.New(cl), pp, inputs)
	compareSinks(t, name+" seq-auto-kernels", pp, want, got)
	for _, shards := range goldenShards {
		// 0 is the default (machine-divided) kernel budget.
		for _, kthreads := range append([]int{0}, goldenKernelThreads...) {
			rt, err := dist.New(cl, dist.Config{Shards: shards, KernelThreads: kthreads})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			label := fmt.Sprintf("%s @%d shards kthreads=%d", name, shards, kthreads)
			got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
			if err != nil {
				t.Fatalf("%s: dist run: %v", label, err)
			}
			if rep == nil || rep.Shards != shards {
				t.Fatalf("%s: bad report %+v", label, rep)
			}
			if kthreads > 0 && rep.KernelThreads != kthreads {
				t.Fatalf("%s: report says %d kernel threads", label, rep.KernelThreads)
			}
			compareSinks(t, label, pp, want, got)
		}
	}
}

// optimize returns g's optimal plan, lowered in the env it was
// optimized in.
func optimize(t testing.TB, g *core.Graph, env *core.Env) *plan.Plan {
	t.Helper()
	ann, err := core.Optimize(g, env)
	if err != nil {
		t.Fatal(err)
	}
	return enginetest.Lower(t, env, ann)
}

// goldenCase is one workload the golden and traffic tests run: a graph
// from a workload generator (or built by hand for the sparse formats),
// its optimal plan and its inputs.
type goldenCase struct {
	name   string
	env    *core.Env
	pp     *plan.Plan
	inputs map[string]*tensor.Dense
}

// chainCase is the §8.2 chain workload generator at an executable scale.
func chainCase(t testing.TB) goldenCase {
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
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	rng := rand.New(rand.NewSource(1))
	mk := func(s shape.Shape) *tensor.Dense { return tensor.RandNormal(rng, int(s.Rows), int(s.Cols)) }
	inputs := map[string]*tensor.Dense{
		"A": mk(sz.A), "B": mk(sz.B), "C": mk(sz.C),
		"D": mk(sz.D), "E": mk(sz.E), "F": mk(sz.F),
	}
	return goldenCase{"matmul-chain", env, optimize(t, g, env), inputs}
}

// ffnnCases are the three FFNN workload generators (W2 update, full
// backprop, three-pass) at a scaled size.
func ffnnCases(t testing.TB) []goldenCase {
	cfg := workload.ScaledFFNN(workload.PaperFFNN(80000), 500)
	gens := []struct {
		name string
		gen  func(workload.FFNNConfig) (*core.Graph, error)
	}{
		{"w2update", workload.FFNNW2Update},
		{"backprop", workload.FFNNBackprop},
		{"3pass", workload.FFNNThreePass},
	}
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	var cases []goldenCase
	for _, gen := range gens {
		g, err := gen.gen(cfg)
		if err != nil {
			t.Fatalf("%s: %v", gen.name, err)
		}
		rng := rand.New(rand.NewSource(3))
		cases = append(cases, goldenCase{"ffnn-" + gen.name, env, optimize(t, g, env), workload.FFNNInputs(rng, cfg)})
	}
	return cases
}

// blockInverseCase is the two-level block-inverse generator.
func blockInverseCase(t testing.TB) goldenCase {
	cfg := workload.BlockInverseConfig{Outer: 40, Inner1: 16, Inner2: 24, BlockFormat: format.NewSingle()}
	g, err := workload.BlockInverse2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	inputs, _ := workload.BlockInverseInputs(rand.New(rand.NewSource(1)), cfg)
	return goldenCase{"block-inverse", env, optimize(t, g, env), inputs}
}

// sparseCases cover the sparse formats: a CSR-input FFNN forward layer
// and a COO-input multiply.
func sparseCases(t testing.TB) []goldenCase {
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	var cases []goldenCase
	{
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
		cases = append(cases, goldenCase{"sparse-csr-forward", env, optimize(t, g, env), inputs})
	}
	{
		g := core.NewGraph()
		x := g.Input("X", shape.New(150, 400), 0.005, format.NewCOO())
		w := g.Input("W", shape.New(400, 60), 1, format.NewSingle())
		g.MustApply(op.Op{Kind: op.MatMul}, x, w)
		rng := rand.New(rand.NewSource(4))
		inputs := map[string]*tensor.Dense{
			"X": tensor.RandSparse(rng, 150, 400, 0.005),
			"W": tensor.RandNormal(rng, 400, 60),
		}
		cases = append(cases, goldenCase{"sparse-coo-mm", env, optimize(t, g, env), inputs})
	}
	return cases
}

// goldenCases lists every case above, in a fixed order.
func goldenCases(t testing.TB) []goldenCase {
	cases := []goldenCase{chainCase(t)}
	cases = append(cases, ffnnCases(t)...)
	cases = append(cases, blockInverseCase(t))
	return append(cases, sparseCases(t)...)
}

func (c goldenCase) assertBitIdentical(t *testing.T) {
	t.Helper()
	assertBitIdentical(t, c.name, c.env.Cluster, c.pp, c.inputs)
}

// TestGoldenMatMulChain covers the §8.2 chain workload generator at an
// executable scale.
func TestGoldenMatMulChain(t *testing.T) { chainCase(t).assertBitIdentical(t) }

// TestGoldenFFNN covers the three FFNN workload generators (W2 update,
// full backprop, three-pass) at a scaled size.
func TestGoldenFFNN(t *testing.T) {
	for _, c := range ffnnCases(t) {
		c.assertBitIdentical(t)
	}
}

// TestGoldenBlockInverse covers the two-level block-inverse generator.
func TestGoldenBlockInverse(t *testing.T) { blockInverseCase(t).assertBitIdentical(t) }

// TestGoldenSparse covers sparse formats: a CSR-input FFNN forward
// layer and a COO-input multiply.
func TestGoldenSparse(t *testing.T) {
	for _, c := range sparseCases(t) {
		c.assertBitIdentical(t)
	}
}

// TestGoldenRandomGraphs mirrors the engine's strongest integration
// property across both engines: random DAGs over mixed formats must
// agree bit-for-bit at every shard count.
func TestGoldenRandomGraphs(t *testing.T) {
	env := core.NewEnv(costmodel.LocalTest(4), format.All())
	kinds := []op.Kind{op.MatMul, op.Add, op.Sub, op.Hadamard, op.Transpose,
		op.ReLU, op.ReLUGrad, op.Neg, op.ScalarMul, op.Softmax, op.RowSums, op.ColSums}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := core.NewGraph()
		const n = 120
		s := shape.New(n, n)
		srcFormats := []format.Format{
			format.NewSingle(), format.NewTile(100), format.NewRowStrip(100), format.NewColStrip(100),
		}
		inputs := make(map[string]*tensor.Dense)
		nIn := 2 + rng.Intn(2)
		for i := 0; i < nIn; i++ {
			name := string(rune('A' + i))
			g.Input(name, s, 1, srcFormats[rng.Intn(len(srcFormats))])
			inputs[name] = tensor.RandNormal(rng, n, n)
		}
		for i := 0; i < 4+rng.Intn(4); i++ {
			k := kinds[rng.Intn(len(kinds))]
			o := op.Op{Kind: k}
			if k == op.ScalarMul {
				o.Scalar = rng.Float64()*2 - 1
			}
			pickSquare := func() *core.Vertex {
				for {
					v := g.Vertices[rng.Intn(len(g.Vertices))]
					if v.Shape == s {
						return v
					}
				}
			}
			var err error
			if o.Arity() == 2 {
				_, err = g.Apply(o, pickSquare(), pickSquare())
			} else {
				_, err = g.Apply(o, pickSquare())
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		pp := optimize(t, g, env)
		assertBitIdentical(t, "random-dag", env.Cluster, pp, inputs)
	}
}
