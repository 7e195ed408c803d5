package dist_test

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/testutil"
)

// TestCancelMidRun cancels a run in flight and checks that it unwinds
// cleanly: the error reports the cancellation and every worker,
// collector, and vertex goroutine exits.
func TestCancelMidRun(t *testing.T) {
	baseline := runtime.NumGoroutine()
	g := core.NewGraph()
	const n = 400
	a := g.Input("A", shape.New(n, n), 1, format.NewSingle())
	cur := a
	for i := 0; i < 5; i++ {
		cur = g.MustApply(op.Op{Kind: op.MatMul}, cur, a)
	}
	env := core.NewEnv(costmodel.LocalTest(4), format.All())
	pp := optimize(t, g, env)
	rng := rand.New(rand.NewSource(1))
	inputs := map[string]*tensor.Dense{"A": tensor.RandNormal(rng, n, n)}

	rt, err := dist.New(env.Cluster, dist.Config{Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := rt.RunPlan(ctx, pp, inputs)
		done <- err
	}()
	time.Sleep(2 * time.Millisecond)
	cancel()

	select {
	case err = <-done:
	case <-time.After(2 * time.Minute):
		t.Fatal("cancelled run did not return")
	}
	if err == nil {
		t.Fatal("cancelled run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error does not wrap context.Canceled: %v", err)
	}

	// Every goroutine the run started must be gone; allow the runtime a
	// moment to reap them.
	testutil.WaitForGoroutines(t, baseline, 5*time.Second)
}
