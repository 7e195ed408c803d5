// Command matopt optimizes one of the built-in workloads and prints the
// chosen physical design: per-vertex implementations, storage formats,
// edge re-layouts and the predicted running time. Ctrl-C (SIGINT) or
// SIGTERM cancels an in-flight optimization cleanly.
//
// With -engine seq or -engine dist the plan is also executed on real
// (randomly generated) matrices, scaled down by -scale so the workloads
// fit in one process. The dist engine shards every relation, verifies
// its outputs bit-for-bit against the sequential engine, and prints the
// measured shuffle traffic. Its run-time flags (-shards, -kernel-threads,
// -max-retries, -fallback, -checkpoint, -checkpoint-budget, -speculate,
// -faults, -fault-seed, -peers) are the fields of dist.Config, whose
// comments are their reference; DESIGN.md §17 has the table.
//
//	matopt -workload ffnn -hidden 80000 -workers 10
//	matopt -workload chain -sizeset 2
//	matopt -workload inverse
//	matopt -workload motivating
//
// -trace prints a span tree of the whole run (optimizer phases, dist
// vertices, exchanges, retries); -trace-out FILE writes the same spans
// as a Chrome trace_event file loadable in chrome://tracing or
// Perfetto; -metrics dumps the process metrics registry (plan-cache
// hit rate, shuffle bytes, retry counts — DESIGN.md §11).
//
//	matopt -workload ffnn -engine dist -shards 8 -scale 500
//	matopt -workload chain -engine dist -shards 4 -peers 127.0.0.1:9431
//	matopt -workload chain -engine dist -shards 8 -faults 5 -fault-seed 7
//	matopt -workload ffnn -engine dist -trace -metrics
//	matopt -workload ffnn -engine dist -trace-out trace.json
//
// -explain prints the lowered physical plan — the exact operator DAG
// (scans, re-layouts, compute strategies, frees) every engine executes
// — with per-operator predicted costs. -plan-out FILE serializes that
// plan to JSON; -plan-in FILE loads one back (skipping optimization
// entirely) after checking its fingerprint against the workload and
// cluster, and executes or simulates it like a freshly optimized plan.
//
//	matopt -workload chain -explain
//	matopt -workload chain -plan-out chain.plan.json
//	matopt -workload chain -plan-in chain.plan.json -engine dist
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

func main() {
	wl := flag.String("workload", "motivating", "motivating | ffnn | ffnn3 | chain | inverse")
	hidden := flag.Int64("hidden", 80000, "FFNN hidden layer size")
	sizeSet := flag.Int("sizeset", 1, "chain size set (1-3)")
	workers := flag.Int("workers", 10, "cluster size")
	sparse := flag.Bool("sparse", false, "allow sparse formats")
	formatSet := flag.String("formats", "all", "format universe: all | ssb (single/strip/block) | sb (single/block)")
	alg := flag.String("alg", "auto", "optimization algorithm: auto (tree DP / frontier) | brute")
	budget := flag.Duration("brute-budget", 30*time.Second, "brute-force time budget")
	stats := flag.Bool("stats", false, "print optimizer search statistics")
	dot := flag.Bool("dot", false, "emit the annotated compute graph in Graphviz format (Figure 2 style)")
	var cfg execConfig
	flag.IntVar(&cfg.Parallelism, "parallelism", runtime.GOMAXPROCS(0), "frontier worker pool size")
	flag.StringVar(&cfg.Engine, "engine", "sim", "sim (simulate at paper scale) | seq | dist (execute, scaled by -scale)")
	flag.IntVar(&cfg.Shards, "shards", 0, "dist engine shard count (0 = GOMAXPROCS)")
	flag.Int64Var(&cfg.Scale, "scale", 100, "divisor applied to workload dimensions before real execution")
	flag.IntVar(&cfg.KernelThreads, "kernel-threads", 0, "threads per local compute kernel (0 = auto-size to the machine, 1 = serial; bit-identical at every setting)")
	flag.IntVar(&cfg.Faults, "faults", 0, "number of seeded faults to inject into the dist run (0 = none)")
	flag.Int64Var(&cfg.FaultSeed, "fault-seed", 1, "seed for the injected fault schedule")
	cfg.MaxRetries = flag.Int("max-retries", dist.DefaultMaxRetries, "dist engine per-vertex retry budget (0 = fail on the first fault)")
	flag.BoolVar(&cfg.Fallback, "fallback", true, "degrade to the sequential engine when dist retries are exhausted")
	flag.BoolVar(&cfg.Checkpoint, "checkpoint", false, "pin cost-model-chosen intermediates resident for recovery (dist)")
	flag.Int64Var(&cfg.CheckpointBudget, "checkpoint-budget", 0, "cap on checkpoint-pinned bytes, deepest vertices first (0 = unbounded)")
	flag.BoolVar(&cfg.Speculate, "speculate", false, "launch speculative duplicates of straggling dist vertices")
	flag.Func("peers", "comma-separated matoptd -worker addresses for the dist TCP transport (\"local\" = in-process shard)", cfg.setPeers)
	flag.BoolVar(&cfg.Trace, "trace", false, "print a span tree of the run (optimizer phases, dist vertices, exchanges)")
	flag.StringVar(&cfg.TraceOut, "trace-out", "", "write the run's spans as a Chrome trace_event file to this path")
	flag.BoolVar(&cfg.Metrics, "metrics", false, "print the process metrics registry after the run")
	flag.BoolVar(&cfg.Explain, "explain", false, "print the lowered physical plan with per-operator costs")
	flag.StringVar(&cfg.PlanOut, "plan-out", "", "write the serialized physical plan to this path")
	flag.StringVar(&cfg.PlanIn, "plan-in", "", "load a serialized physical plan from this path instead of optimizing")
	flag.Parse()
	if err := cfg.validate(); err != nil {
		log.Fatal(err)
	}
	execute := cfg.Engine != "sim"

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	var g *core.Graph
	var inputs map[string]*tensor.Dense
	var err error
	rng := rand.New(rand.NewSource(1))
	if execute {
		g, inputs, err = buildExecutable(*wl, *hidden, *sizeSet, cfg.Scale, rng)
	} else {
		g, err = buildPaperScale(*wl, *hidden, *sizeSet)
	}
	if err != nil {
		log.Fatal(err)
	}

	var universe []format.Format
	switch *formatSet {
	case "all":
		universe = format.All()
	case "ssb":
		universe = format.SingleStripBlock()
	case "sb":
		universe = format.SingleBlock()
	default:
		log.Fatalf("unknown format set %q", *formatSet)
	}
	env := core.NewEnv(costmodel.EC2R5D(*workers), universe)
	if !*sparse {
		env.DisableSparse()
	}
	// One root span wraps optimization and execution so the exported
	// trace's top-level spans cover the whole measured run.
	if cfg.tracing() {
		cfg.Tracer = obs.NewTracer()
		cfg.Span = cfg.Tracer.Start(nil, "matopt").SetStr("workload", *wl).SetStr("engine", cfg.Engine)
	}
	sessOpts := []core.SessionOption{core.WithParallelism(cfg.Parallelism)}
	if cfg.Tracer != nil {
		sessOpts = append(sessOpts, core.WithTracer(cfg.Tracer, cfg.Span))
	}
	var ann *core.Annotation
	var phys *plan.Plan
	if cfg.PlanIn != "" {
		// Replay a previously serialized physical plan: no optimization,
		// just fingerprint-checked decoding against this graph and env.
		data, rerr := os.ReadFile(cfg.PlanIn)
		if rerr != nil {
			log.Fatalf("-plan-in: %v", rerr)
		}
		if phys, err = plan.Decode(g, env, data); err != nil {
			log.Fatalf("-plan-in: %v", err)
		}
		ann = phys.Ann
		fmt.Printf("loaded physical plan (%d nodes) from %s\n", len(phys.Nodes), cfg.PlanIn)
	} else {
		switch *alg {
		case "auto":
			sess := core.NewSession(ctx, env, sessOpts...)
			ann, err = sess.Optimize(g)
			reportStats(*stats, sess)
		case "brute":
			bctx, cancel := context.WithTimeout(ctx, *budget)
			defer cancel()
			sess := core.NewSession(bctx, env, sessOpts...)
			ann, err = sess.Brute(g)
			reportStats(*stats, sess)
		default:
			log.Fatalf("unknown algorithm %q", *alg)
		}
		if err != nil {
			log.Fatalf("optimize: %v", err)
		}
	}
	if *dot {
		fmt.Print(ann.DOT())
		return
	}
	fmt.Print(ann.Describe())

	// Every downstream consumer — -explain, -plan-out, both execution
	// engines and the simulator — works off one lowering of the plan.
	if phys == nil {
		if phys, err = plan.Lower(g, env, ann); err != nil {
			log.Fatalf("lower: %v", err)
		}
	}
	if cfg.Explain {
		fmt.Printf("\n%s", phys.Explain())
	}
	if cfg.PlanOut != "" {
		data, eerr := plan.Encode(phys, env)
		if eerr != nil {
			log.Fatalf("-plan-out: %v", eerr)
		}
		if werr := os.WriteFile(cfg.PlanOut, data, 0o644); werr != nil {
			log.Fatalf("-plan-out: %v", werr)
		}
		fmt.Printf("\nwrote physical plan (%d nodes) to %s\n", len(phys.Nodes), cfg.PlanOut)
	}

	if execute {
		run(ctx, cfg, env.Cluster, phys, inputs)
		emitObs(cfg)
		return
	}
	rep, err := engine.SimulatePlan(phys, env)
	if err != nil {
		log.Fatalf("simulate: %v", err)
	}
	fmt.Printf("\nsimulated time on %d workers: %s   (optimizer: %.2fs)\n",
		*workers, fmtSec(rep.Seconds), ann.OptSeconds)
	fmt.Printf("features: %.3g FLOPs, %.3g net bytes, %.3g intermediate bytes, %.0f tuples\n",
		rep.Features.FLOPs, rep.Features.NetBytes, rep.Features.InterBytes, rep.Features.Tuples)
	fmt.Printf("peak per-worker working set: %.1f GB\n", rep.PeakWorkerBytes/(1<<30))
	emitObs(cfg)
}

// emitObs closes the root span and writes whichever observability
// outputs the flags asked for: the span tree (-trace), a Chrome
// trace_event file (-trace-out) and the metrics registry (-metrics).
func emitObs(cfg execConfig) {
	cfg.Span.End()
	if cfg.Tracer != nil {
		snap := cfg.Tracer.Snapshot()
		if cfg.Trace {
			fmt.Printf("\ntrace (%d spans, root coverage %.0f%%):\n%s",
				len(snap.Spans), 100*snap.WallCoverage(), snap.Tree())
		}
		if cfg.TraceOut != "" {
			f, err := os.Create(cfg.TraceOut)
			if err != nil {
				log.Fatalf("-trace-out: %v", err)
			}
			if err := snap.WriteChromeTrace(f); err != nil {
				f.Close()
				log.Fatalf("-trace-out: %v", err)
			}
			if err := f.Close(); err != nil {
				log.Fatalf("-trace-out: %v", err)
			}
			fmt.Printf("\nwrote %d spans to %s (load in chrome://tracing or Perfetto)\n",
				len(snap.Spans), cfg.TraceOut)
		}
	}
	if cfg.Metrics {
		fmt.Printf("\nmetrics:\n%s", obs.Default().Render())
	}
}

// buildPaperScale builds the workload at the paper's published sizes,
// for optimization and simulation only.
func buildPaperScale(wl string, hidden int64, sizeSet int) (*core.Graph, error) {
	switch wl {
	case "motivating":
		return workload.MotivatingChain()
	case "ffnn":
		return workload.FFNNW2Update(workload.PaperFFNN(hidden))
	case "ffnn3":
		return workload.FFNNThreePass(workload.PaperFFNN(hidden))
	case "chain":
		sets := workload.ChainSizeSets()
		if sizeSet < 1 || sizeSet > len(sets) {
			return nil, fmt.Errorf("sizeset must be in 1..%d", len(sets))
		}
		return workload.MatMulChain(sets[sizeSet-1])
	case "inverse":
		return workload.BlockInverse2(workload.PaperBlockInverse())
	default:
		return nil, fmt.Errorf("unknown workload %q", wl)
	}
}

// buildExecutable builds the workload with every dimension divided by
// scale plus matching random input matrices.
func buildExecutable(wl string, hidden int64, sizeSet int, scale int64, rng *rand.Rand) (*core.Graph, map[string]*tensor.Dense, error) {
	div := func(x int64) int64 {
		if v := x / scale; v > 0 {
			return v
		}
		return 1
	}
	switch wl {
	case "motivating":
		return nil, nil, fmt.Errorf("the motivating chain exists at paper scale only; use -engine sim or -workload chain")
	case "ffnn", "ffnn3":
		cfg := workload.ScaledFFNN(workload.PaperFFNN(hidden), scale)
		gen := workload.FFNNW2Update
		if wl == "ffnn3" {
			gen = workload.FFNNThreePass
		}
		g, err := gen(cfg)
		if err != nil {
			return nil, nil, err
		}
		return g, workload.FFNNInputs(rng, cfg), nil
	case "chain":
		sets := workload.ChainSizeSets()
		if sizeSet < 1 || sizeSet > len(sets) {
			return nil, nil, fmt.Errorf("sizeset must be in 1..%d", len(sets))
		}
		sz := sets[sizeSet-1]
		shrink := func(s shape.Shape) shape.Shape { return shape.New(div(s.Rows), div(s.Cols)) }
		sz.A, sz.B, sz.C = shrink(sz.A), shrink(sz.B), shrink(sz.C)
		sz.D, sz.E, sz.F = shrink(sz.D), shrink(sz.E), shrink(sz.F)
		g, err := workload.MatMulChain(sz)
		if err != nil {
			return nil, nil, err
		}
		inputs := map[string]*tensor.Dense{}
		for n, s := range map[string]shape.Shape{"A": sz.A, "B": sz.B, "C": sz.C, "D": sz.D, "E": sz.E, "F": sz.F} {
			inputs[n] = tensor.RandNormal(rng, int(s.Rows), int(s.Cols))
		}
		return g, inputs, nil
	case "inverse":
		paper := workload.PaperBlockInverse()
		outer := div(paper.Outer)
		if outer < 2 {
			outer = 2
		}
		inner1 := outer * paper.Inner1 / paper.Outer
		if inner1 < 1 {
			inner1 = 1
		}
		cfg := workload.BlockInverseConfig{
			Outer: outer, Inner1: inner1, Inner2: outer - inner1,
			BlockFormat: format.NewSingle(),
		}
		g, err := workload.BlockInverse2(cfg)
		if err != nil {
			return nil, nil, err
		}
		// A diagonally dominant matrix keeps every Schur complement the
		// identity-based plan inverts well conditioned.
		n, n1 := int(outer), int(inner1)
		full := tensor.RandNormal(rng, 2*n, 2*n)
		for i := 0; i < 2*n; i++ {
			full.Set(i, i, full.At(i, i)+float64(2*n))
		}
		inputs := map[string]*tensor.Dense{
			"A11": full.Slice(0, n1, 0, n1), "A12": full.Slice(0, n1, n1, n),
			"A21": full.Slice(n1, n, 0, n1), "A22": full.Slice(n1, n, n1, n),
			"B1": full.Slice(0, n1, n, 2*n), "B2": full.Slice(n1, n, n, 2*n),
			"C1": full.Slice(n, 2*n, 0, n1), "C2": full.Slice(n, 2*n, n1, n),
			"D": full.Slice(n, 2*n, n, 2*n),
		}
		return g, inputs, nil
	default:
		return nil, nil, fmt.Errorf("unknown workload %q", wl)
	}
}

// run executes the lowered physical plan for real. The dist path always
// runs the sequential engine too and cross-checks every output bit by
// bit. When cfg.Faults > 0, a seeded fault schedule is injected and the
// run must recover (or, with -fallback, degrade) to the same bits.
func run(ctx context.Context, cfg execConfig, cl costmodel.Cluster, phys *plan.Plan, inputs map[string]*tensor.Dense) {
	seq := engine.New(cl)
	seq.KernelThreads = cfg.KernelThreads
	t0 := time.Now()
	want, err := seq.RunPlanCollectCtx(ctx, phys, inputs)
	if err != nil {
		log.Fatalf("sequential run: %v", err)
	}
	seqWall := time.Since(t0)
	fmt.Printf("\nsequential engine: %d outputs in %v\n", len(want), seqWall.Round(time.Millisecond))
	if cfg.Engine == "seq" {
		return
	}

	rt, err := dist.New(cl, cfg.Config)
	if err != nil {
		log.Fatal(err)
	}
	if sched := rt.FaultSchedule(phys); len(sched) > 0 {
		fmt.Printf("injecting %d seeded faults (seed %d):\n", len(sched), rt.Config().FaultSeed)
		for _, f := range sched {
			fmt.Printf("  %v\n", f)
		}
	}
	got, rep, err := rt.RunPlan(ctx, phys, inputs)
	if err != nil {
		if !cfg.Fallback || ctx.Err() != nil {
			log.Fatalf("dist run: %v", err)
		}
		// Graceful degradation: the sequential outputs are already in
		// hand, so report the downgrade and serve those.
		rep.Degraded = true
		rep.DegradedCause = err.Error()
		fmt.Printf("dist engine (%d shards) degraded to sequential: %v\n%s", rep.Shards, err, rep)
		return
	}
	for id, w := range want {
		g, ok := got[id]
		if !ok || g.Rows != w.Rows || g.Cols != w.Cols {
			log.Fatalf("dist output %d does not match the sequential engine's shape", id)
		}
		for i := range w.Data {
			if math.Float64bits(g.Data[i]) != math.Float64bits(w.Data[i]) {
				log.Fatalf("dist output %d differs from the sequential engine at entry %d", id, i)
			}
		}
	}
	fmt.Printf("dist engine (%d shards): outputs bit-identical to sequential ✓\n%s", rep.Shards, rep)
	if rep.Wall > 0 {
		fmt.Printf("speedup over sequential: %.2fx\n", float64(seqWall)/float64(rep.Wall))
	}
}

func reportStats(enabled bool, sess *core.Session) {
	if !enabled {
		return
	}
	st := sess.Stats()
	fmt.Printf("optimizer stats: %d classes expanded, %d entries pruned, %d candidates evaluated, %.3fs wall\n",
		st.ClassesExpanded, st.EntriesPruned, st.CandidatesEvaluated, st.WallSeconds)
}

func fmtSec(s float64) string {
	d := int(s + 0.5)
	if d >= 3600 {
		return fmt.Sprintf("%d:%02d:%02d", d/3600, d%3600/60, d%60)
	}
	return fmt.Sprintf("%d:%02d", d/60, d%60)
}
