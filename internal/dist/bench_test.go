package dist_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/format"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// benchShards is the shard count the benchmark runs at.
const benchShards = 8

// benchChain optimizes the scaled matmul chain the benchmark runs and
// returns it with a timer for one run of it under a given Config. Every
// timed run builds a fresh runtime: FaultPlan latches are once-only, so
// a fault variant re-arms its plan every iteration.
func benchChain(b *testing.B) (*plan.Plan, func(dist.Config) time.Duration) {
	sz := workload.ChainSizes{
		Name: "bench",
		A:    shape.New(200, 600), B: shape.New(600, 1000),
		C: shape.New(1000, 1), D: shape.New(1, 1000),
		E: shape.New(1000, 200), F: shape.New(1000, 200),
	}
	g, err := workload.MatMulChain(sz)
	if err != nil {
		b.Fatal(err)
	}
	cl := costmodel.LocalTest(benchShards)
	pp := optimize(b, g, core.NewEnv(cl, format.All()))
	rng := rand.New(rand.NewSource(1))
	mk := func(s shape.Shape) *tensor.Dense { return tensor.RandNormal(rng, int(s.Rows), int(s.Cols)) }
	inputs := map[string]*tensor.Dense{
		"A": mk(sz.A), "B": mk(sz.B), "C": mk(sz.C),
		"D": mk(sz.D), "E": mk(sz.E), "F": mk(sz.F),
	}
	timeRun := func(cfg dist.Config) time.Duration {
		cfg.Shards = benchShards
		rt, err := dist.New(cl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		if _, _, err := rt.RunPlan(context.Background(), pp, inputs); err != nil {
			b.Fatal(err)
		}
		return time.Since(t0)
	}
	return pp, timeRun
}

// BenchmarkDistFaultOverhead measures what fault tolerance costs a run
// that never fails: an armed-but-empty plan next to a nil one prices the
// per-hook lookups, and crashing every vertex once prices a full
// recovery.
func BenchmarkDistFaultOverhead(b *testing.B) {
	pp, timeRun := benchChain(b)
	var crashAll []dist.Fault
	for _, v := range pp.Graph.Vertices {
		crashAll = append(crashAll, dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
	}

	var noFault, emptyPlan, crashRecover time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		noFault += timeRun(dist.Config{})
		emptyPlan += timeRun(dist.Config{FaultPlan: dist.NewFaultPlan()})
		crashRecover += timeRun(dist.Config{FaultPlan: dist.NewFaultPlan(crashAll...)})
	}
	b.StopTimer()

	noFaultNs := noFault.Nanoseconds() / int64(b.N)
	emptyNs := emptyPlan.Nanoseconds() / int64(b.N)
	crashNs := crashRecover.Nanoseconds() / int64(b.N)
	b.ReportMetric(float64(noFaultNs), "nofault-ns/op")
	b.ReportMetric(float64(emptyNs), "emptyplan-ns/op")
	b.ReportMetric(float64(crashNs), "crashrecover-ns/op")
}
