package core_test

// Session-layer tests: context cancellation across all three algorithms,
// the Frontier DP's plans on every seed workload generator, and the
// per-run instrumentation. These live in an external test package so
// they can drive the real workload graphs (internal/workload imports
// core).

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/shape"
	"matopt/internal/workload"
)

// seedCase is one workload graph plus the beam limit the tests optimize
// it under (0 = the exact default; the pathological sharers get a beam
// both to bound test time and to exercise the deterministic pruning
// path).
type seedCase struct {
	name string
	g    *core.Graph
	beam int
}

// seedGraphs returns every workload generator's graph, named.
func seedGraphs(t *testing.T) []seedCase {
	t.Helper()
	var out []seedCase
	add := func(name string, beam int, g *core.Graph, err error) {
		if err != nil {
			t.Fatalf("building %s: %v", name, err)
		}
		out = append(out, seedCase{name, g, beam})
	}
	ffnn := workload.PaperFFNN(80000)
	g, err := workload.FFNNW2Update(ffnn)
	add("ffnn-w2", 0, g, err)
	g, err = workload.FFNNThreePass(ffnn)
	add("ffnn-threepass", 1500, g, err)
	g, err = workload.MotivatingChain()
	add("motivating", 0, g, err)
	for i, sz := range workload.ChainSizeSets() {
		g, err = workload.MatMulChain(sz)
		add(fmt.Sprintf("chain-%d", i+1), 0, g, err)
	}
	g, err = workload.BlockInverse2(workload.PaperBlockInverse())
	add("block-inverse", 1500, g, err)
	for _, sk := range []struct {
		name string
		kind workload.ScaleKind
	}{{"Tree", workload.ScaleTree}, {"DAG1", workload.ScaleDAG1}, {"DAG2", workload.ScaleDAG2}} {
		g, err = workload.ScaleGraph(sk.kind, 4)
		add("scale-"+sk.name, 0, g, err)
	}
	return out
}

// TestFrontierSeedPlansVerify checks that Frontier's plan of every seed
// workload, under its beam, verifies against the environment.
func TestFrontierSeedPlansVerify(t *testing.T) {
	for _, tc := range seedGraphs(t) {
		t.Run(tc.name, func(t *testing.T) {
			env := core.NewEnv(costmodel.EC2R5D(10), format.All())
			env.MaxClassEntries = tc.beam
			ann, err := core.NewSession(nil, env).Frontier(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			if err := ann.Verify(env); err != nil {
				t.Errorf("plan does not verify: %v", err)
			}
		})
	}
}

// TestBruteDeadlinePrompt is the regression test for the context-based
// deadline check: a 1 ms budget on an intractable search must return
// ErrTimeout promptly, not after a long polling interval.
func TestBruteDeadlinePrompt(t *testing.T) {
	g, err := workload.FFNNW2Update(workload.PaperFFNN(80000))
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	start := time.Now()
	_, err = core.Brute(g, env, time.Millisecond)
	elapsed := time.Since(start)
	if !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("timeout should also match context.DeadlineExceeded, got %v", err)
	}
	// ~10 ms is the target; 50 ms leaves slack for slow CI machines while
	// still catching a return to coarse polling.
	if elapsed > 50*time.Millisecond {
		t.Errorf("1 ms budget took %v to abort", elapsed)
	}
}

// TestCancelledContextAborts checks that an already-cancelled parent
// context aborts all three algorithms with context.Canceled — and that
// none of them panic.
func TestCancelledContextAborts(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())

	dag, err := workload.FFNNW2Update(workload.PaperFFNN(80000))
	if err != nil {
		t.Fatal(err)
	}
	tree, err := workload.MotivatingChain()
	if err != nil {
		t.Fatal(err)
	}

	if _, err := core.NewSession(ctx, env).Brute(tree); !errors.Is(err, context.Canceled) {
		t.Errorf("Brute under cancelled context: got %v", err)
	}
	if _, err := core.NewSession(ctx, env).TreeDP(tree); !errors.Is(err, context.Canceled) {
		t.Errorf("TreeDP under cancelled context: got %v", err)
	}
	if _, err := core.NewSession(ctx, env).Frontier(dag); !errors.Is(err, context.Canceled) {
		t.Errorf("Frontier under cancelled context: got %v", err)
	}
	if _, err := core.NewSession(ctx, env).Optimize(dag); !errors.Is(err, context.Canceled) {
		t.Errorf("Optimize under cancelled context: got %v", err)
	}
}

// TestFrontierDeadline checks mid-search deadline expiry in the Frontier
// DP surfaces as ErrTimeout.
func TestFrontierDeadline(t *testing.T) {
	g, err := workload.FFNNThreePass(workload.PaperFFNN(80000))
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := core.NewSession(ctx, env).Frontier(g); !errors.Is(err, core.ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

// TestSessionStats checks the per-run instrumentation is populated.
func TestSessionStats(t *testing.T) {
	g, err := workload.FFNNW2Update(workload.PaperFFNN(80000))
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	sess := core.NewSession(nil, env)
	if _, err := sess.Optimize(g); err != nil {
		t.Fatal(err)
	}
	st := sess.Stats()
	if st.ClassesExpanded != g.NumOps() {
		t.Errorf("ClassesExpanded = %d, want one per non-source vertex (%d)", st.ClassesExpanded, g.NumOps())
	}
	if st.CandidatesEvaluated == 0 {
		t.Error("CandidatesEvaluated = 0 after a full search")
	}
	if st.WallSeconds <= 0 {
		t.Errorf("WallSeconds = %v, want > 0", st.WallSeconds)
	}
}

// TestAddInputErrors checks graph construction reports typed errors
// instead of panicking.
func TestAddInputErrors(t *testing.T) {
	g := core.NewGraph()
	s := shape.New(4, 4)
	if _, err := g.AddInput("a", s, 2.0, format.NewSingle()); err == nil {
		t.Error("density 2.0 accepted")
	}
	if _, err := g.AddInput("a", s, 1.0, format.NewSingle()); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	if _, err := g.AddInput("a", s, 1.0, format.NewSingle()); err == nil {
		t.Error("duplicate name accepted")
	}
}
