package dist_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
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

// benchShards is the shard count both benchmarks run at.
const benchShards = 8

// benchChain optimizes the scaled matmul chain both benchmarks run and
// returns it with a timer for one run of it under a given Config. Every timed run builds a fresh runtime: FaultPlan latches are
// once-only, so a fault variant re-arms its plan every iteration.
func benchChain(b *testing.B) (*plan.Plan, func(dist.Config) (time.Duration, *dist.Report)) {
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
	timeRun := func(cfg dist.Config) (time.Duration, *dist.Report) {
		cfg.Shards = benchShards
		rt, err := dist.New(cl, cfg)
		if err != nil {
			b.Fatal(err)
		}
		t0 := time.Now()
		_, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err != nil {
			b.Fatal(err)
		}
		return time.Since(t0), rep
	}
	return pp, timeRun
}

// faultBenchResult is the record `make bench` writes to
// BENCH_dist_faults.json: the cost of the fault-injection hooks when no
// plan is armed (which every fault-free run now pays) next to a run
// that crashes and recovers every vertex once.
type faultBenchResult struct {
	Workload        string  `json:"workload"`
	Shards          int     `json:"shards"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NumCPU          int     `json:"numcpu"`
	NoFaultNs       int64   `json:"nofault_ns"`       // nil FaultPlan: what every fault-free run pays
	EmptyPlanNs     int64   `json:"empty_plan_ns"`    // armed but empty plan: per-hook lookup cost
	CrashRecoverNs  int64   `json:"crash_recover_ns"` // crash every vertex once, recover
	RecoveryRetries int64   `json:"recovery_retries"`
	HookOverheadPct float64 `json:"hook_overhead_pct"` // (empty_plan - nofault) / nofault
}

// BenchmarkDistFaultOverhead measures what fault tolerance costs a run
// that never fails: an armed-but-empty plan next to a nil one prices the
// per-hook lookups, and crashing every vertex once prices a full
// recovery. When BENCH_DIST_FAULTS_JSON names a file, the comparison is
// written there as JSON.
func BenchmarkDistFaultOverhead(b *testing.B) {
	pp, timeRun := benchChain(b)
	var crashAll []dist.Fault
	for _, v := range pp.Graph.Vertices {
		crashAll = append(crashAll, dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
	}

	var noFault, emptyPlan, crashRecover time.Duration
	var retries int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := timeRun(dist.Config{})
		noFault += d
		d, _ = timeRun(dist.Config{FaultPlan: dist.NewFaultPlan()})
		emptyPlan += d
		var rep *dist.Report
		d, rep = timeRun(dist.Config{FaultPlan: dist.NewFaultPlan(crashAll...)})
		crashRecover += d
		retries = rep.Retries
	}
	b.StopTimer()

	noFaultNs := noFault.Nanoseconds() / int64(b.N)
	emptyNs := emptyPlan.Nanoseconds() / int64(b.N)
	crashNs := crashRecover.Nanoseconds() / int64(b.N)
	overhead := float64(emptyNs-noFaultNs) / float64(noFaultNs)
	b.ReportMetric(float64(noFaultNs), "nofault-ns/op")
	b.ReportMetric(float64(emptyNs), "emptyplan-ns/op")
	b.ReportMetric(float64(crashNs), "crashrecover-ns/op")

	if path := os.Getenv("BENCH_DIST_FAULTS_JSON"); path != "" {
		out, err := json.MarshalIndent(faultBenchResult{
			Workload:        "matmul-chain (scaled)",
			Shards:          benchShards,
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
			NumCPU:          runtime.NumCPU(),
			NoFaultNs:       noFaultNs,
			EmptyPlanNs:     emptyNs,
			CrashRecoverNs:  crashNs,
			RecoveryRetries: retries,
			HookOverheadPct: overhead * 100,
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}

// recoveryBenchResult is the record `make bench` writes to
// BENCH_recovery.json: what a node loss at the sink costs with lineage
// recompute alone next to the same loss with cost-model checkpoint
// placement, plus the memory the pins hold relative to the run's peak.
type recoveryBenchResult struct {
	Workload           string  `json:"workload"`
	Shards             int     `json:"shards"`
	GOMAXPROCS         int     `json:"gomaxprocs"`
	NumCPU             int     `json:"numcpu"`
	CleanNs            int64   `json:"clean_ns"`              // no fault: the recovery-free baseline
	CascadeNs          int64   `json:"cascade_ns"`            // sink node loss, lineage recompute only
	CheckpointNs       int64   `json:"checkpoint_ns"`         // sink node loss with checkpoint pins
	CascadeDepth       int     `json:"cascade_depth"`         // redo chain length without pins
	CheckpointDepth    int     `json:"checkpoint_depth"`      // redo chain length with pins
	CheckpointVertices int     `json:"checkpoint_vertices"`   // pins placed by the cost model
	CheckpointBytes    int64   `json:"checkpoint_bytes"`      // bytes the pins held at completion
	PeakBytes          int64   `json:"peak_bytes"`            // resident peak of the pinned run
	CkptMemOverheadPct float64 `json:"ckpt_mem_overhead_pct"` // checkpoint_bytes / peak_bytes
	RecoveryPenaltyPct float64 `json:"recovery_penalty_pct"`  // (cascade - clean) / clean
	CkptSavingsPct     float64 `json:"ckpt_recovery_savings"` // (cascade - checkpoint) / cascade
}

// BenchmarkRecovery measures the cascading-recompute path end to end: a
// node loss at the sink forces the runtime to rebuild the freed
// upstream chain, and checkpoint pins trade resident memory for a
// shorter redo chain. When BENCH_RECOVERY_JSON names a file, the
// comparison is written there as JSON.
func BenchmarkRecovery(b *testing.B) {
	pp, timeRun := benchChain(b)
	sink := pp.Graph.Vertices[len(pp.Graph.Vertices)-1].ID
	lossPlan := func() *dist.FaultPlan {
		return dist.NewFaultPlan(dist.Fault{Kind: dist.FaultNodeLoss, Vertex: sink})
	}

	var clean, cascade, checkpoint time.Duration
	var cascRep, ckptRep *dist.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, _ := timeRun(dist.Config{})
		clean += d
		d, cascRep = timeRun(dist.Config{FaultPlan: lossPlan()})
		cascade += d
		d, ckptRep = timeRun(dist.Config{FaultPlan: lossPlan(), Checkpoint: true})
		checkpoint += d
	}
	b.StopTimer()

	cleanNs := clean.Nanoseconds() / int64(b.N)
	cascadeNs := cascade.Nanoseconds() / int64(b.N)
	ckptNs := checkpoint.Nanoseconds() / int64(b.N)
	b.ReportMetric(float64(cleanNs), "clean-ns/op")
	b.ReportMetric(float64(cascadeNs), "cascade-ns/op")
	b.ReportMetric(float64(ckptNs), "checkpoint-ns/op")
	b.ReportMetric(float64(cascRep.MaxCascadeDepth), "cascade-depth")

	if path := os.Getenv("BENCH_RECOVERY_JSON"); path != "" {
		var memPct float64
		if ckptRep.PeakBytes > 0 {
			memPct = 100 * float64(ckptRep.CheckpointBytes) / float64(ckptRep.PeakBytes)
		}
		out, err := json.MarshalIndent(recoveryBenchResult{
			Workload:           "matmul-chain (scaled)",
			Shards:             benchShards,
			GOMAXPROCS:         runtime.GOMAXPROCS(0),
			NumCPU:             runtime.NumCPU(),
			CleanNs:            cleanNs,
			CascadeNs:          cascadeNs,
			CheckpointNs:       ckptNs,
			CascadeDepth:       cascRep.MaxCascadeDepth,
			CheckpointDepth:    ckptRep.MaxCascadeDepth,
			CheckpointVertices: ckptRep.CheckpointVertices,
			CheckpointBytes:    ckptRep.CheckpointBytes,
			PeakBytes:          ckptRep.PeakBytes,
			CkptMemOverheadPct: memPct,
			RecoveryPenaltyPct: 100 * float64(cascadeNs-cleanNs) / float64(cleanNs),
			CkptSavingsPct:     100 * float64(cascadeNs-ckptNs) / float64(cascadeNs),
		}, "", "  ")
		if err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
			b.Fatal(err)
		}
	}
}
