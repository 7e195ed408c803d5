package matopt

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"matopt/internal/tensor"
)

func TestQuickstartFlow(t *testing.T) {
	b := NewBuilder()
	a := b.Input("matA", 100, 10000, RowStrips(10))
	m := b.Input("matB", 10000, 100, ColStrips(10))
	c := b.Input("matC", 100, 1000000, ColStrips(10000))
	out := b.MatMul(b.MatMul(a, m), c)
	if err := b.Err(); err != nil {
		t.Fatal(err)
	}
	if out.Rows() != 100 || out.Cols() != 1000000 {
		t.Fatalf("output shape %dx%d", out.Rows(), out.Cols())
	}
	plan, err := NewOptimizer(ClusterR5D(5)).Optimize(b, out)
	if err != nil {
		t.Fatal(err)
	}
	if err := plan.Verify(); err != nil {
		t.Fatal(err)
	}
	if plan.PredictedSeconds() <= 0 {
		t.Fatal("no predicted cost")
	}
	if len(plan.Describe()) == 0 {
		t.Fatal("empty description")
	}
	rep, err := Simulate(plan)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Seconds <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestBuilderErrorsAreDeferred(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 10, 20, Single())
	y := b.Input("y", 30, 40, Single())
	bad := b.MatMul(x, y) // 10x20 × 30x40 is ⊥
	_ = b.Add(bad, bad)   // keeps composing without panicking
	if b.Err() == nil {
		t.Fatal("shape error not recorded")
	}
	if _, err := NewOptimizer(ClusterR5D(2)).Optimize(b, bad); err == nil {
		t.Fatal("Optimize must surface the builder error")
	}
}

func TestBuilderRejectsForeignMatrices(t *testing.T) {
	b1 := NewBuilder()
	b2 := NewBuilder()
	x := b1.Input("x", 10, 10, Single())
	y := b2.Input("y", 10, 10, Single())
	b1.Add(x, y)
	if b1.Err() == nil {
		t.Fatal("cross-builder use must error")
	}
}

func TestExecuteSmallPlan(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 120, 80, Tiles(100))
	y := b.Input("y", 80, 60, Single())
	out := b.ReLU(b.MatMul(x, y))
	plan, err := NewOptimizer(ClusterR5D(3)).Optimize(b, out)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	ins := map[string]*Dense{
		"x": tensor.RandNormal(rng, 120, 80),
		"y": tensor.RandNormal(rng, 80, 60),
	}
	exec := NewExecutor(ClusterR5D(3))
	got, err := exec.RunSingle(plan, ins)
	if err != nil {
		t.Fatal(err)
	}
	want := tensor.K{}.ReLU(tensor.MatMul(ins["x"], ins["y"]))
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("deviates by %g", diff)
	}
	if exec.Stats().FLOPs == 0 {
		t.Fatal("no work recorded")
	}
}

func TestFormatSetsAndBrute(t *testing.T) {
	b := NewBuilder()
	x := b.Input("x", 2000, 2000, Tiles(1000))
	y := b.Input("y", 2000, 2000, Tiles(1000))
	out := b.MatMul(x, y)
	auto, err := NewOptimizer(ClusterR5D(4), WithFormats(SingleBlockFormats)).Optimize(b, out)
	if err != nil {
		t.Fatal(err)
	}
	brute, err := NewOptimizer(ClusterR5D(4), WithFormats(SingleBlockFormats),
		WithAlgorithm(BruteForce), WithBudget(time.Minute)).Optimize(b, out)
	if err != nil {
		t.Fatal(err)
	}
	if d := auto.PredictedSeconds() - brute.PredictedSeconds(); d > 1e-9 || d < -1e-9 {
		t.Fatalf("DP %.6f vs brute %.6f", auto.PredictedSeconds(), brute.PredictedSeconds())
	}
	// A tiny budget must time out on a deep chain.
	deep := NewBuilder()
	cur := deep.Input("m0", 4000, 4000, Tiles(1000))
	for i := 0; i < 10; i++ {
		nxt := deep.Input(string(rune('a'+i)), 4000, 4000, Tiles(1000))
		cur = deep.MatMul(cur, nxt)
	}
	_, err = NewOptimizer(ClusterR5D(4), WithAlgorithm(BruteForce),
		WithBudget(time.Millisecond)).Optimize(deep, cur)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
}

func TestSparseInputPlan(t *testing.T) {
	b := NewBuilder()
	x := b.SparseInput("x", 10000, 597540, 1.7e-4, SparseCSR())
	w := b.Input("w", 597540, 4000, Tiles(1000))
	out := b.MatMul(x, w)
	plan, err := NewOptimizer(ClusterR5DN(5)).Optimize(b, out)
	if err != nil {
		t.Fatal(err)
	}
	densePlan, err := func() (*Plan, error) {
		b2 := NewBuilder()
		x2 := b2.Input("x", 10000, 597540, ColStrips(1000))
		w2 := b2.Input("w", 597540, 4000, Tiles(1000))
		return NewOptimizer(ClusterR5DN(5), WithFormats(DenseFormats)).Optimize(b2, b2.MatMul(x2, w2))
	}()
	if err != nil {
		t.Fatal(err)
	}
	if plan.PredictedSeconds() >= densePlan.PredictedSeconds() {
		t.Fatalf("sparse plan %.2fs not cheaper than dense %.2fs",
			plan.PredictedSeconds(), densePlan.PredictedSeconds())
	}
}

func TestOptimizeRejectsEmptyComputation(t *testing.T) {
	b := NewBuilder()
	b.Input("x", 10, 10, Single())
	if _, err := NewOptimizer(ClusterR5D(2)).Optimize(b); err == nil {
		t.Fatal("computation without operations must be rejected")
	}
}
