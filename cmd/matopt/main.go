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
// -max-retries, -fallback, -faults, -fault-seed, -peers) are
// the fields of dist.Config, whose comments are their reference;
// DESIGN.md §17 has the table.
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
// (scans, re-layouts, compute strategies) every engine executes
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
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"matopt"
	"matopt/internal/dist"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

func main() {
	var cfg execConfig
	bindFlags(flag.CommandLine, &cfg)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if _, err := drive(ctx, cfg, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// bindFlags declares every command-line flag on fs, bound to cfg.
func bindFlags(fs *flag.FlagSet, cfg *execConfig) {
	fs.StringVar(&cfg.Workload, "workload", "motivating", "motivating | ffnn | ffnn3 | chain | inverse")
	fs.Int64Var(&cfg.Hidden, "hidden", 80000, "FFNN hidden layer size")
	fs.IntVar(&cfg.SizeSet, "sizeset", 1, "chain size set (1-3)")
	fs.IntVar(&cfg.Workers, "workers", 10, "cluster size")
	fs.BoolVar(&cfg.Sparse, "sparse", false, "allow sparse formats")
	fs.StringVar(&cfg.Formats, "formats", "all", "format universe: all | ssb (single/strip/block) | sb (single/block)")
	fs.StringVar(&cfg.Alg, "alg", "auto", "optimization algorithm: auto (frontier) | brute")
	fs.DurationVar(&cfg.Budget, "brute-budget", 30*time.Second, "brute-force time budget")
	fs.BoolVar(&cfg.Stats, "stats", false, "print optimizer search statistics")
	fs.BoolVar(&cfg.DOT, "dot", false, "emit the annotated compute graph in Graphviz format (Figure 2 style)")
	fs.StringVar(&cfg.Engine, "engine", "sim", "sim (simulate at paper scale) | seq | dist (execute, scaled by -scale)")
	fs.IntVar(&cfg.Shards, "shards", 0, "dist engine shard count (0 = GOMAXPROCS)")
	fs.Int64Var(&cfg.Scale, "scale", 100, "divisor applied to workload dimensions before real execution")
	fs.IntVar(&cfg.KernelThreads, "kernel-threads", 0, "threads per local compute kernel (0 = auto-size to the machine, 1 = serial; bit-identical at every setting)")
	fs.IntVar(&cfg.Faults, "faults", 0, "number of seeded faults to inject into the dist run (0 = none)")
	fs.Int64Var(&cfg.FaultSeed, "fault-seed", 1, "seed for the injected fault schedule")
	cfg.MaxRetries = fs.Int("max-retries", dist.DefaultMaxRetries, "dist engine per-vertex retry budget (0 = fail on the first fault)")
	fs.BoolVar(&cfg.Fallback, "fallback", true, "degrade to the sequential engine when dist retries are exhausted")
	fs.Func("peers", "comma-separated matoptd -worker addresses for the dist TCP transport (\"local\" = in-process shard)", cfg.setPeers)
	fs.BoolVar(&cfg.Trace, "trace", false, "print a span tree of the run (optimizer phases, dist vertices, exchanges)")
	fs.StringVar(&cfg.TraceOut, "trace-out", "", "write the run's spans as a Chrome trace_event file to this path")
	fs.BoolVar(&cfg.Metrics, "metrics", false, "print the process metrics registry after the run")
	fs.BoolVar(&cfg.Explain, "explain", false, "print the lowered physical plan with per-operator costs")
	fs.StringVar(&cfg.PlanOut, "plan-out", "", "write the serialized physical plan to this path")
	fs.StringVar(&cfg.PlanIn, "plan-in", "", "load a serialized physical plan from this path instead of optimizing")
}

// drive is the whole command after flag parsing: describe the
// computation (workload.Spec), obtain its plan (matopt.Optimizer —
// search or -plan-in), print what was asked for, then simulate or
// execute it (matopt.Executor). It returns the executed outputs, nil
// for -engine sim and -dot.
func drive(ctx context.Context, cfg execConfig, w io.Writer) (map[int]*matopt.Dense, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	opts, err := cfg.optimizerOptions()
	if err != nil {
		return nil, err
	}
	// The seed is fixed: two identical invocations compute on identical
	// matrices.
	spec := workload.Spec{Workload: cfg.Workload, SizeSet: cfg.SizeSet, Hidden: cfg.Hidden, Scale: cfg.Scale, Seed: 1}
	execute := cfg.Engine != "sim"
	var b *matopt.Builder
	var inputs map[string]*matopt.Dense
	switch {
	case !execute:
		g, err := spec.PaperGraph()
		if err != nil {
			return nil, err
		}
		b = matopt.NewBuilderFromGraph(g)
	case spec.Workload == "motivating":
		return nil, fmt.Errorf("the motivating chain exists at paper scale only; use -engine sim or -workload chain")
	default:
		g, in, err := spec.Build()
		if err != nil {
			return nil, err
		}
		b, inputs = matopt.NewBuilderFromGraph(g), in
	}

	// One tracer shared by the optimizer and both executors, so the
	// exported trace covers the whole measured run.
	var tracer *matopt.Tracer
	if cfg.tracing() {
		tracer = matopt.NewTracer()
	}
	cl := matopt.ClusterR5D(cfg.Workers)
	opt := matopt.NewOptimizer(cl, append(opts, matopt.WithTracer(tracer))...)
	var p *matopt.Plan
	if cfg.PlanIn != "" {
		// Replay a previously serialized physical plan: no optimization,
		// just fingerprint-checked decoding against this graph and env.
		data, err := os.ReadFile(cfg.PlanIn)
		if err != nil {
			return nil, fmt.Errorf("-plan-in: %w", err)
		}
		if p, err = opt.DecodePlan(b, data); err != nil {
			return nil, fmt.Errorf("-plan-in: %w", err)
		}
	} else {
		if p, err = opt.OptimizeCtx(ctx, b); err != nil {
			return nil, fmt.Errorf("optimize: %w", err)
		}
		if st := p.OptimizerStats(); cfg.Stats {
			fmt.Fprintf(w, "optimizer stats: %d classes expanded, %d entries pruned, %d candidates evaluated, %.3fs wall\n",
				st.ClassesExpanded, st.EntriesPruned, st.CandidatesEvaluated, st.WallSeconds)
		}
	}
	// -explain, -plan-out, both execution engines and the simulator all
	// work off the plan's one lowering.
	phys, _ := p.Physical() // a Plan is lowered where it is made: never an error
	if cfg.PlanIn != "" {
		fmt.Fprintf(w, "loaded physical plan (%d nodes) from %s\n", len(phys.Nodes), cfg.PlanIn)
	}
	if cfg.DOT {
		fmt.Fprint(w, p.Annotation().DOT())
		return nil, nil
	}
	fmt.Fprint(w, p.Describe())
	if cfg.Explain {
		// The listing is the plan's own; the header line also names the
		// kernels this process would run it on, which no plan knows.
		head, nodes, _ := strings.Cut(phys.Explain(), "\n")
		fmt.Fprintf(w, "\n%s, %s kernels\n%s", head, tensor.ISA(), nodes)
	}
	if cfg.PlanOut != "" {
		data, err := plan.Encode(phys, opt.Env())
		if err != nil {
			return nil, fmt.Errorf("-plan-out: %w", err)
		}
		if err := os.WriteFile(cfg.PlanOut, data, 0o644); err != nil {
			return nil, fmt.Errorf("-plan-out: %w", err)
		}
		fmt.Fprintf(w, "\nwrote physical plan (%d nodes) to %s\n", len(phys.Nodes), cfg.PlanOut)
	}

	var outs map[int]*matopt.Dense
	if execute {
		if outs, err = run(ctx, cfg, cl, p, inputs, tracer, w); err != nil {
			return nil, err
		}
	} else {
		rep, err := matopt.Simulate(p)
		if err != nil {
			return nil, fmt.Errorf("simulate: %w", err)
		}
		fmt.Fprintf(w, "\nsimulated time on %d workers: %s   (optimizer: %.2fs)\n",
			cfg.Workers, fmtSec(rep.Seconds), p.OptimizerSeconds())
		fmt.Fprintf(w, "features: %.3g FLOPs, %.3g net bytes, %.3g intermediate bytes, %.0f tuples\n",
			rep.Features.FLOPs, rep.Features.NetBytes, rep.Features.InterBytes, rep.Features.Tuples)
		fmt.Fprintf(w, "peak per-worker working set: %.1f GB\n", rep.PeakWorkerBytes/(1<<30))
	}
	return outs, emitObs(cfg, tracer, w)
}

// emitObs writes whichever observability outputs the flags asked for:
// the span tree (-trace), a Chrome trace_event file (-trace-out) and
// the metrics registry (-metrics).
func emitObs(cfg execConfig, tracer *matopt.Tracer, w io.Writer) error {
	if tracer != nil {
		snap := tracer.Snapshot()
		if cfg.Trace {
			fmt.Fprintf(w, "\ntrace (%d spans, root coverage %.0f%%):\n%s",
				len(snap.Spans), 100*snap.WallCoverage(), snap.Tree())
		}
		if cfg.TraceOut != "" {
			var buf bytes.Buffer
			if err := snap.WriteChromeTrace(&buf); err != nil {
				return fmt.Errorf("-trace-out: %w", err)
			}
			if err := os.WriteFile(cfg.TraceOut, buf.Bytes(), 0o644); err != nil {
				return fmt.Errorf("-trace-out: %w", err)
			}
			fmt.Fprintf(w, "\nwrote %d spans to %s (load in chrome://tracing or Perfetto)\n",
				len(snap.Spans), cfg.TraceOut)
		}
	}
	if cfg.Metrics {
		fmt.Fprintf(w, "\nmetrics:\n%s", obs.Default().Render())
	}
	return nil
}

// run executes the plan for real and returns its outputs. The dist path
// always runs the sequential engine too and cross-checks every output
// bit by bit. When cfg.Faults > 0, a seeded fault schedule is injected
// and the run must recover (or, with -fallback, degrade inside the
// Executor) to the same bits.
func run(ctx context.Context, cfg execConfig, cl matopt.Cluster, p *matopt.Plan,
	inputs map[string]*matopt.Dense, tracer *matopt.Tracer, w io.Writer) (map[int]*matopt.Dense, error) {
	seq := matopt.NewExecutor(cl, matopt.WithTracing(tracer),
		matopt.WithExecConfig(matopt.ExecConfig{KernelThreads: cfg.KernelThreads}))
	t0 := time.Now()
	want, err := seq.RunCtx(ctx, p, inputs)
	if err != nil {
		return nil, fmt.Errorf("sequential run: %w", err)
	}
	seqWall := time.Since(t0)
	fmt.Fprintf(w, "\nsequential engine: %d outputs in %v\n", len(want), seqWall.Round(time.Millisecond))
	if cfg.Engine == "seq" {
		return want, nil
	}

	// The runtime built here only names the schedule the Executor's own
	// run will draw from the same Config and plan.
	rt, err := dist.New(cl, cfg.Config)
	if err != nil {
		return nil, err
	}
	phys, _ := p.Physical() // never an error, as in drive
	if sched := rt.FaultSchedule(phys); len(sched) > 0 {
		fmt.Fprintf(w, "injecting %d seeded faults (seed %d):\n", len(sched), rt.Config().FaultSeed)
		for _, f := range sched {
			fmt.Fprintf(w, "  %v\n", f)
		}
	}
	x := matopt.NewExecutor(cl, matopt.WithEngineKind(matopt.DistEngine),
		matopt.WithExecConfig(cfg.Config), matopt.WithTracing(tracer))
	got, err := x.RunCtx(ctx, p, inputs)
	if err != nil {
		return nil, fmt.Errorf("dist run: %w", err)
	}
	rep := x.DistReport()
	if rep.Degraded {
		// Graceful degradation: the Executor re-ran the plan on its
		// sequential engine, so report the downgrade and serve that.
		fmt.Fprintf(w, "dist engine (%d shards) degraded to sequential: %s\n%s", rep.Shards, rep.DegradedCause, rep)
		return got, nil
	}
	for id, wm := range want {
		if !tensor.BitEqual(got[id], wm) {
			return nil, fmt.Errorf("dist output %d differs from the sequential engine's", id)
		}
	}
	fmt.Fprintf(w, "dist engine (%d shards): outputs bit-identical to sequential ✓\n%s", rep.Shards, rep)
	if rep.Wall > 0 {
		fmt.Fprintf(w, "speedup over sequential: %.2fx\n", float64(seqWall)/float64(rep.Wall))
	}
	return got, nil
}

func fmtSec(s float64) string {
	d := int(s + 0.5)
	if d >= 3600 {
		return fmt.Sprintf("%d:%02d:%02d", d/3600, d%3600/60, d%60)
	}
	return fmt.Sprintf("%d:%02d", d/60, d%60)
}
