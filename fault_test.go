package matopt

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"matopt/internal/costmodel"
	"matopt/internal/tensor"
)

// faultGolden builds a small multi-op computation, optimizes it, and
// returns the plan plus inputs and the sequential-engine golden output.
func faultGolden(t *testing.T) (*Plan, map[string]*Dense, map[int]*Dense) {
	t.Helper()
	b := NewBuilder()
	x := b.Input("X", 120, 400, RowStrips(100))
	w := b.Input("W", 400, 80, Single())
	h := b.ReLU(b.MatMul(x, w))
	b.MatMul(b.Transpose(h), h)
	cl := costmodel.LocalTest(3)
	plan, err := NewOptimizer(cl).Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inputs := map[string]*Dense{
		"X": tensor.RandNormal(rng, 120, 400),
		"W": tensor.RandNormal(rng, 400, 80),
	}
	want, err := NewExecutor(cl).Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	return plan, inputs, want
}

func requireBitIdentical(t *testing.T, name string, got, want map[int]*Dense) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d outputs, want %d", name, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if g == nil || g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s: output %d missing or misshapen", name, id)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s: output %d entry %d differs: bits %x != %x",
					name, id, i, math.Float64bits(g.Data[i]), math.Float64bits(w.Data[i]))
			}
		}
	}
}

// TestExecutorFaultPaths is the three-way golden comparison the fault
// model promises: fault-free dist, faulted-and-recovered dist, and the
// retries-exhausted fallback path must all produce bit-identical
// outputs to the sequential engine.
func TestExecutorFaultPaths(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)

	// Fault-free dist run.
	clean := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(4))
	got, err := clean.Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "fault-free dist", got, want)
	if rep := clean.DistReport(); rep == nil || rep.Retries != 0 || rep.Degraded {
		t.Fatalf("fault-free report should be quiet, got %+v", rep)
	}

	// Faulted and recovered: crash every vertex's first attempt.
	var faults []Fault
	for _, v := range plan.Annotation().Graph.Vertices {
		faults = append(faults, Fault{Kind: FaultCrash, Vertex: v.ID})
	}
	recov := NewExecutor(cl, WithEngineKind(DistEngine),
		WithExecConfig(ExecConfig{Shards: 4, FaultPlan: NewFaultPlan(faults...)}))
	got, err = recov.Run(plan, inputs)
	if err != nil {
		t.Fatalf("recovery run failed: %v", err)
	}
	requireBitIdentical(t, "faulted-and-recovered dist", got, want)
	rep := recov.DistReport()
	if rep == nil || rep.Retries != int64(len(faults)) || rep.FaultsInjected != int64(len(faults)) {
		t.Fatalf("recovery report should count %d faults and retries, got %+v", len(faults), rep)
	}
	if rep.Degraded {
		t.Fatal("recovered run must not report a downgrade")
	}

	// Retries exhausted → graceful degradation to the sequential engine.
	v := plan.Annotation().Graph.Vertices[0].ID
	always := NewFaultPlan(
		Fault{Kind: FaultCrash, Vertex: v, Attempt: 0},
		Fault{Kind: FaultCrash, Vertex: v, Attempt: 1},
	)
	one := 1
	degraded := NewExecutor(cl, WithEngineKind(DistEngine),
		WithExecConfig(ExecConfig{Shards: 4, FaultPlan: always, MaxRetries: &one, Fallback: true}))
	got, err = degraded.Run(plan, inputs)
	if err != nil {
		t.Fatalf("fallback run failed: %v", err)
	}
	requireBitIdentical(t, "sequential fallback", got, want)
	rep = degraded.DistReport()
	if rep == nil || !rep.Degraded {
		t.Fatalf("fallback must be reported on DistReport, got %+v", rep)
	}
	if rep.DegradedCause == "" {
		t.Fatal("downgrade cause missing from report")
	}

	// The same schedule without Fallback must surface the typed error.
	strict := NewExecutor(cl, WithEngineKind(DistEngine),
		WithExecConfig(ExecConfig{Shards: 4, MaxRetries: &one, FaultPlan: NewFaultPlan(
			Fault{Kind: FaultCrash, Vertex: v, Attempt: 0},
			Fault{Kind: FaultCrash, Vertex: v, Attempt: 1},
		)}))
	if _, err := strict.Run(plan, inputs); !errors.Is(err, ErrRetriesExhausted) || !errors.Is(err, ErrShardFailed) {
		t.Fatalf("want ErrRetriesExhausted wrapping ErrShardFailed, got %v", err)
	}
}

// TestFallbackNeverMasksCancellation: a cancelled context aborts the
// run with context.Canceled even when fallback is enabled — degrading
// to the sequential engine must not swallow the caller's cancel.
func TestFallbackNeverMasksCancellation(t *testing.T) {
	plan, inputs, _ := faultGolden(t)
	cl := costmodel.LocalTest(3)
	exec := NewExecutor(cl, WithEngineKind(DistEngine), WithExecConfig(ExecConfig{Shards: 4, Fallback: true}))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := exec.RunCtx(ctx, plan, inputs); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestRandomFaultsDeterministic: the same seed yields the same
// schedule; different seeds differ.
func TestRandomFaultsDeterministic(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4}
	a := RandomFaults(42, 8, ids).Faults()
	b := RandomFaults(42, 8, ids).Faults()
	if len(a) != 8 || len(b) != 8 {
		t.Fatalf("want 8 faults, got %d and %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("schedules diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := RandomFaults(43, 8, ids).Faults()
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical schedules")
	}
}

// TestExecutorDistReportRaces exercises the lastReport mutex under
// concurrent runs and reads.
func TestExecutorDistReportRaces(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)
	exec := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(2))
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			exec.DistReport()
			time.Sleep(time.Millisecond)
		}
	}()
	got, err := exec.Run(plan, inputs)
	if err != nil {
		t.Fatal(err)
	}
	requireBitIdentical(t, "concurrent-report dist", got, want)
	<-done
}
