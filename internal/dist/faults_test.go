package dist_test

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/testutil"
	"matopt/internal/workload"
)

// chaosShards are the shard counts the fault sweep runs at: an even
// split and a prime count that misaligns with every tile grid.
var chaosShards = []int{2, 7}

// leakChecked runs fn under the shared goroutine-leak checker: a run
// that failed, recovered or was cancelled must not leave workers,
// collectors, producers or link readers behind.
func leakChecked(t *testing.T, fn func()) {
	t.Helper()
	testutil.CheckGoroutines(t, fn)
}

// chaosWorkload builds the scaled matmul chain the sweep uses — small
// enough that crash-each-vertex × drop-each-exchange × {2,7} shards
// stays fast, with a DAG deep enough to exercise every exchange kind.
func chaosWorkload(t *testing.T) (*plan.Plan, map[string]*tensor.Dense, costmodel.Cluster) {
	t.Helper()
	sz := workload.ChainSizes{
		Name: "chaos",
		A:    shape.New(60, 150), B: shape.New(150, 250),
		C: shape.New(250, 1), D: shape.New(1, 250),
		E: shape.New(250, 60), F: shape.New(250, 60),
	}
	g, err := workload.MatMulChain(sz)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	pp := optimize(t, g, env)
	rng := rand.New(rand.NewSource(7))
	mk := func(s shape.Shape) *tensor.Dense { return tensor.RandNormal(rng, int(s.Rows), int(s.Cols)) }
	inputs := map[string]*tensor.Dense{
		"A": mk(sz.A), "B": mk(sz.B), "C": mk(sz.C),
		"D": mk(sz.D), "E": mk(sz.E), "F": mk(sz.F),
	}
	return pp, inputs, env.Cluster
}

// seqGolden runs the plan on the sequential engine.
func seqGolden(t *testing.T, cl costmodel.Cluster, pp *plan.Plan, inputs map[string]*tensor.Dense) map[int]*tensor.Dense {
	t.Helper()
	return enginetest.Run(t, engine.New(cl), pp, inputs)
}

// intp returns a pointer to n, for Config.MaxRetries.
func intp(n int) *int { return &n }

// runFaulted executes pp on a dist runtime with the given fault plan
// (over the optional base configuration) and requires every sink to
// match the sequential golden bit for bit.
func runFaulted(t *testing.T, name string, cl costmodel.Cluster, shards int, plan *dist.FaultPlan,
	pp *plan.Plan, inputs map[string]*tensor.Dense, want map[int]*tensor.Dense,
	base ...dist.Config) *dist.Report {
	t.Helper()
	var cfg dist.Config
	if len(base) > 0 {
		cfg = base[0]
	}
	cfg.Shards, cfg.FaultPlan = shards, plan
	rt, err := dist.New(cl, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
	if err != nil {
		t.Fatalf("%s @%d shards: dist run did not recover: %v", name, shards, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s @%d shards: %d sinks, sequential produced %d", name, shards, len(got), len(want))
	}
	for id, w := range want {
		g := got[id]
		if g == nil || g.Rows != w.Rows || g.Cols != w.Cols {
			t.Fatalf("%s @%d shards: sink %d missing or misshapen", name, shards, id)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				t.Fatalf("%s @%d shards: sink %d entry %d: dist bits %x != sequential bits %x",
					name, shards, id, i, math.Float64bits(g.Data[i]), math.Float64bits(w.Data[i]))
			}
		}
	}
	return rep
}

// TestChaosSweep is the seeded fault sweep: crash each vertex once,
// crash every vertex in one run, drop each exchange once, and run a
// combined schedule — at shards
// {2, 7}. Every schedule must recover to bit-identical outputs, and the
// Report must count each injected fault and each retry taken.
func TestChaosSweep(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)

	for _, shards := range chaosShards {
		// Fault-free profiling run: the exchange list drives the
		// drop-each-exchange schedules below.
		base := runFaulted(t, "fault-free", cl, shards, nil, pp, inputs, want)
		if base.FaultsInjected != 0 || base.Retries != 0 {
			t.Fatalf("fault-free run reports recovery: %+v", base)
		}

		// Crash each vertex once on its first attempt.
		for _, v := range pp.Graph.Vertices {
			plan := dist.NewFaultPlan(dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
			rep := runFaulted(t, "crash", cl, shards, plan, pp, inputs, want)
			if rep.FaultsInjected != 1 {
				t.Fatalf("crash v%d @%d shards: %d faults injected, want 1", v.ID, shards, rep.FaultsInjected)
			}
			if rep.Retries != 1 || rep.RetriesByVertex[v.ID] != 1 {
				t.Fatalf("crash v%d @%d shards: retries=%d byVertex=%v, want exactly one retry of v%d",
					v.ID, shards, rep.Retries, rep.RetriesByVertex, v.ID)
			}
		}

		// Crash every vertex once, all in one run: each crash is
		// metered as one fault and answered by one retry of its vertex.
		var crashAll []dist.Fault
		for _, v := range pp.Graph.Vertices {
			crashAll = append(crashAll, dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
		}
		rep := runFaulted(t, "crash all", cl, shards, dist.NewFaultPlan(crashAll...), pp, inputs, want)
		if n := int64(len(crashAll)); rep.FaultsInjected != n || rep.Retries != n {
			t.Fatalf("crash all @%d shards: %d faults injected, %d retries; want %d of each",
				shards, rep.FaultsInjected, rep.Retries, n)
		}
		for _, v := range pp.Graph.Vertices {
			if rep.RetriesByVertex[v.ID] != 1 {
				t.Fatalf("crash all @%d shards: v%d retried %d times, want once", shards, v.ID, rep.RetriesByVertex[v.ID])
			}
		}

		// Drop each exchange once: every (vertex, label) the fault-free
		// run metered loses its messages on the vertex's first attempt.
		for _, x := range base.Exchanges {
			plan := dist.NewFaultPlan(dist.Fault{
				Kind: dist.FaultDropExchange, Vertex: x.Vertex, Label: x.Label, Shard: -1,
			})
			rep := runFaulted(t, "drop "+x.Label, cl, shards, plan, pp, inputs, want)
			if rep.FaultsInjected != 1 {
				t.Fatalf("drop %s v%d @%d shards: %d faults injected, want 1", x.Label, x.Vertex, shards, rep.FaultsInjected)
			}
			if rep.RetriesByVertex[x.Vertex] < 1 {
				t.Fatalf("drop %s v%d @%d shards: vertex was not retried: %v", x.Label, x.Vertex, shards, rep.RetriesByVertex)
			}
		}

		// Combined schedule: a crash and a dropped exchange in the same
		// run. The dropped exchange must belong to a vertex other than the
		// crashed one — a crash preempts the vertex's first attempt before
		// its exchanges run, so a drop scheduled on the same vertex's
		// attempt 0 would never fire.
		mid := pp.Graph.Vertices[len(pp.Graph.Vertices)/2]
		dropX := base.Exchanges[0]
		for _, x := range base.Exchanges {
			if x.Vertex != mid.ID {
				dropX = x
				break
			}
		}
		combined := dist.NewFaultPlan(
			dist.Fault{Kind: dist.FaultCrash, Vertex: mid.ID},
			dist.Fault{Kind: dist.FaultDropExchange, Vertex: dropX.Vertex, Label: dropX.Label, Shard: -1},
		)
		rep = runFaulted(t, "combined", cl, shards, combined, pp, inputs, want)
		if rep.FaultsInjected != 2 {
			t.Fatalf("combined @%d shards: %d faults injected, want 2", shards, rep.FaultsInjected)
		}
		if rep.Retries < 2 {
			t.Fatalf("combined @%d shards: %d retries, want ≥ 2 (crash + drop)", shards, rep.Retries)
		}
	}
}

// TestChaosSharedPlanCountsPerRun: a run reports the faults it fired,
// not the plan's lifetime. One runtime runs twice under an explicit plan
// with one crash: the first run fires and retries it, the second has
// nothing left to fire and must report nothing — and the process-wide
// counter sums the two runs to one fault.
func TestChaosSharedPlanCountsPerRun(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	plan := dist.NewFaultPlan(dist.Fault{Kind: dist.FaultCrash, Vertex: pp.Graph.Vertices[len(pp.Graph.Vertices)-1].ID})
	rt, err := dist.New(cl, dist.Config{Shards: 2, FaultPlan: plan})
	if err != nil {
		t.Fatal(err)
	}
	before := obs.Default().Counter("dist.faults_injected").Value()
	for i, want := range []int64{1, 0} {
		_, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		if rep.FaultsInjected != want || rep.Retries != want {
			t.Errorf("run %d: %d faults injected, %d retries; want %d and %d", i+1, rep.FaultsInjected, rep.Retries, want, want)
		}
	}
	if d := obs.Default().Counter("dist.faults_injected").Value() - before; d != 1 {
		t.Errorf("process-wide dist.faults_injected rose by %d over the two runs, want 1", d)
	}
}

// TestChaosSeededRandomSchedules runs seeded RandomFaults schedules over
// an FFNN workload: every seed must recover to bit-identical outputs.
func TestChaosSeededRandomSchedules(t *testing.T) {
	cfg := workload.ScaledFFNN(workload.PaperFFNN(80000), 500)
	g, err := workload.FFNNW2Update(cfg)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	pp := optimize(t, g, env)
	rng := rand.New(rand.NewSource(3))
	inputs := workload.FFNNInputs(rng, cfg)
	want := seqGolden(t, env.Cluster, pp, inputs)

	ids := make([]int, len(pp.Graph.Vertices))
	for i, v := range pp.Graph.Vertices {
		ids[i] = v.ID
	}
	for _, shards := range chaosShards {
		for seed := int64(1); seed <= 4; seed++ {
			plan := dist.RandomFaults(seed, 5, ids)
			rep := runFaulted(t, "random-schedule", cl3(), shards, plan, pp, inputs, want)
			if rep.FaultsInjected > int64(len(plan.Faults())) {
				t.Fatalf("seed %d @%d shards: injected %d of %d scheduled", seed, shards, rep.FaultsInjected, len(plan.Faults()))
			}
		}
	}
}

func cl3() costmodel.Cluster { return costmodel.LocalTest(3) }

// TestRetriesExhausted crashes one vertex on every allowed attempt: the
// run must fail with ErrRetriesExhausted wrapping ErrShardFailed, still
// return its Report, and leak nothing.
func TestRetriesExhausted(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	v := pp.Graph.Vertices[0].ID
	leakChecked(t, func() {
		plan := dist.NewFaultPlan(
			dist.Fault{Kind: dist.FaultCrash, Vertex: v, Attempt: 0},
			dist.Fault{Kind: dist.FaultCrash, Vertex: v, Attempt: 1},
			dist.Fault{Kind: dist.FaultCrash, Vertex: v, Attempt: 2},
		)
		rt, err := dist.New(cl, dist.Config{Shards: 4, FaultPlan: plan, MaxRetries: intp(2)})
		if err != nil {
			t.Fatal(err)
		}
		_, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err == nil {
			t.Fatal("run succeeded with a vertex crashing on every attempt")
		}
		if !errors.Is(err, dist.ErrRetriesExhausted) {
			t.Fatalf("error does not wrap ErrRetriesExhausted: %v", err)
		}
		if !errors.Is(err, dist.ErrShardFailed) {
			t.Fatalf("error does not wrap the last attempt's ErrShardFailed: %v", err)
		}
		if rep == nil || rep.Retries != 2 || rep.FaultsInjected != 3 {
			t.Fatalf("failed run's report should still meter recovery, got %+v", rep)
		}
	})
}

// TestShutdownCleanOnFailure is the shutdown-gap check: runs that fail
// at different points — no retries allowed, a missing input, retries
// exhausted mid-DAG — must drain every worker, collector and producer
// goroutine before Run returns.
func TestShutdownCleanOnFailure(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)

	t.Run("first-fault-fatal", func(t *testing.T) {
		leakChecked(t, func() {
			for _, v := range pp.Graph.Vertices {
				plan := dist.NewFaultPlan(dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
				rt, err := dist.New(cl, dist.Config{Shards: 4, FaultPlan: plan, MaxRetries: intp(0)})
				if err != nil {
					t.Fatal(err)
				}
				if _, _, err := rt.RunPlan(context.Background(), pp, inputs); !errors.Is(err, dist.ErrShardFailed) {
					t.Fatalf("crash v%d with no retries: want ErrShardFailed, got %v", v.ID, err)
				}
			}
		})
	})

	t.Run("missing-input", func(t *testing.T) {
		leakChecked(t, func() {
			rt, err := dist.New(cl, dist.Config{Shards: 4})
			if err != nil {
				t.Fatal(err)
			}
			partial := map[string]*tensor.Dense{"A": inputs["A"]}
			if _, _, err := rt.RunPlan(context.Background(), pp, partial); err == nil {
				t.Fatal("run with missing inputs succeeded")
			}
		})
	})

	t.Run("dropped-exchange-fatal", func(t *testing.T) {
		leakChecked(t, func() {
			plan := dist.NewFaultPlan(
				dist.Fault{Kind: dist.FaultDropExchange, Vertex: -1, Shard: -1, Attempt: 0},
				dist.Fault{Kind: dist.FaultDropExchange, Vertex: -1, Shard: -1, Attempt: 1},
				dist.Fault{Kind: dist.FaultDropExchange, Vertex: -1, Shard: -1, Attempt: 2},
			)
			rt, err := dist.New(cl, dist.Config{Shards: 7, FaultPlan: plan})
			if err != nil {
				t.Fatal(err)
			}
			_, _, err = rt.RunPlan(context.Background(), pp, inputs)
			if !errors.Is(err, dist.ErrExchangeTimeout) {
				t.Fatalf("want ErrExchangeTimeout after drops exhaust retries, got %v", err)
			}
		})
	})
}
