package matopt_test

// One benchmark per table and figure of the paper's evaluation (§8).
// Each benchmark regenerates its figure through internal/figures — the
// same code path as cmd/experiments — reporting the optimizer's own
// runtime where the paper reports it, and printing the reproduced rows
// once (use -v to see them). Simulated plan seconds stand in for the
// paper's EC2 wall-clock; see DESIGN.md §2 and EXPERIMENTS.md for the
// paper-vs-measured record.

import (
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"matopt"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/figures"
	"matopt/internal/format"
	"matopt/internal/netfabric"
	"matopt/internal/plan"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// printOnce renders each figure at most once per process so -bench runs
// stay readable across b.N iterations.
var printOnce sync.Map

func report(b *testing.B, t figures.Table) {
	b.Helper()
	if _, done := printOnce.LoadOrStore(t.Name, true); !done {
		b.Log("\n" + t.String())
	}
}

func BenchmarkFig01_Motivating(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig1())
	}
}

func BenchmarkFig04_ChainSizes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig4())
	}
}

func BenchmarkFig05_FFNNThreePass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig5())
	}
}

func BenchmarkFig06_FFNNLayerSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig6())
	}
}

func BenchmarkFig07_FFNNClusterSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig7())
	}
}

func BenchmarkFig08_UserStudy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig8())
	}
}

func BenchmarkFig09_BlockInverse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig9())
	}
}

func BenchmarkFig10_MatMulChain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig10())
	}
}

func BenchmarkFig11_AmazonCat1K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig11())
	}
}

func BenchmarkFig12_AmazonCat10K(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig12())
	}
}

func BenchmarkFig13_OptimizerRuntime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, figures.Fig13(2*time.Second))
	}
}

// --- optimizer micro-benchmarks: the quantities Figure 13 plots ---

func benchOptimizer(b *testing.B, kind workload.ScaleKind, scale int, fs []format.Format) {
	search := core.Frontier
	if kind == workload.ScaleTree {
		search = core.TreeDP // Figure 13's "DP Tree" column is Algorithm 3
	}
	g, err := workload.ScaleGraph(kind, scale)
	if err != nil {
		b.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), fs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search(g, env); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOptimizerTreeScale4AllFormats(b *testing.B) {
	benchOptimizer(b, workload.ScaleTree, 4, format.All())
}

func BenchmarkOptimizerDAG1Scale4AllFormats(b *testing.B) {
	benchOptimizer(b, workload.ScaleDAG1, 4, format.All())
}

func BenchmarkOptimizerDAG2Scale4AllFormats(b *testing.B) {
	benchOptimizer(b, workload.ScaleDAG2, 4, format.All())
}

func BenchmarkOptimizerDAG2Scale4SingleBlock(b *testing.B) {
	benchOptimizer(b, workload.ScaleDAG2, 4, format.SingleBlock())
}

func BenchmarkOptimizerFFNNW2Update80K(b *testing.B) {
	g, err := workload.FFNNW2Update(workload.PaperFFNN(80000))
	if err != nil {
		b.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Optimize(g, env); err != nil {
			b.Fatal(err)
		}
	}
}

// --- plan-cache benches: repeated Optimize of the Fig. 5 FFNN graph ---

// fig5Builder wraps the Figure 5 three-pass FFNN graph (80 000 labels)
// in a public-API Builder so the cache benchmarks exercise the same
// Optimize entry point users call.
func fig5Builder(b *testing.B) *matopt.Builder {
	b.Helper()
	g, err := workload.FFNNThreePass(workload.PaperFFNN(80000))
	if err != nil {
		b.Fatal(err)
	}
	return matopt.NewBuilderFromGraph(g)
}

// BenchmarkOptimizeCacheHit measures a repeated Optimize served from the
// plan cache; compare against BenchmarkOptimizeCacheCold — the hit path
// must be ≥100× faster than the cold search.
func BenchmarkOptimizeCacheHit(b *testing.B) {
	o := matopt.NewOptimizer(matopt.ClusterR5D(10))
	bld := fig5Builder(b)
	if _, err := o.Optimize(bld); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := o.Optimize(bld)
		if err != nil {
			b.Fatal(err)
		}
		if !p.Cached() {
			b.Fatal("expected a cache hit")
		}
	}
}

// BenchmarkOptimizeCacheCold is the same computation on a fresh
// Optimizer per iteration, so every Optimize misses the cache and
// searches.
func BenchmarkOptimizeCacheCold(b *testing.B) {
	bld := fig5Builder(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := matopt.NewOptimizer(matopt.ClusterR5D(10)).Optimize(bld)
		if err != nil {
			b.Fatal(err)
		}
		if p.Cached() {
			b.Fatal("a fresh optimizer served a cached plan")
		}
	}
}

// --- Frontier bench ---

// BenchmarkFrontierFFNN is one Frontier search of the Figure 5 FFNN
// graph (57 vertices) on ten r5d workers.
func BenchmarkFrontierFFNN(b *testing.B) {
	g, err := workload.FFNNThreePass(workload.PaperFFNN(80000))
	if err != nil {
		b.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.NewSession(nil, env).Frontier(g); err != nil {
			b.Fatal(err)
		}
	}
}

// --- kernel benches: the floor under every engine ---

// BenchmarkGEMM times the serial dense product at the sizes the plans
// run it: a large square, a chain tile, the 64³ small tile where packing
// used to dominate, a tall-skinny product whose width is not a multiple
// of the register tile, and the shape of BenchmarkCSRMulDense's chain row.
func BenchmarkGEMM(b *testing.B) {
	for _, s := range []struct {
		name    string
		n, k, m int
	}{{"1000", 1000, 1000, 1000}, {"250", 250, 250, 250}, {"64", 64, 64, 64}, {"2500x250x30", 2500, 250, 30},
		{"250x1250x1250", 250, 1250, 1250}} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			x, y := tensor.RandNormal(rng, s.n, s.k), tensor.RandNormal(rng, s.k, s.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = tensor.MatMul(x, y)
			}
			b.ReportMetric(2*float64(s.n)*float64(s.k)*float64(s.m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// BenchmarkCSRMulDense times the CSR×dense product: first at the shape
// of the chain plan's mm-bcast-csr-rowstrip-agg vertex (a fully dense
// 250×1250 strip held as CSR times a 1250×1250 dense matrix, which runs
// on the GEMM tile), then at that shape with one cell absent (the gather
// strip's near-full rate) and at densities 0.9 and 0.5, which bracket
// the dense/CSR crossover, then on operands that are sparse in earnest
// and on narrow right-hand sides, where blocking has the least to give
// and the most to cost.
func BenchmarkCSRMulDense(b *testing.B) {
	for _, s := range []struct {
		name    string
		n, k, m int
		density float64
		absent  bool // clear one cell, so the operand is not full
	}{
		{"chain", 250, 1250, 1250, 1, false},
		{"chain-1", 250, 1250, 1250, 1, true},
		{"chain@0.9", 250, 1250, 1250, 0.9, false},
		{"chain@0.5", 250, 1250, 1250, 0.5, false},
		{"1000x2000x500@0.01", 1000, 2000, 500, 0.01, false},
		{"1000x2000x500@0.1", 1000, 2000, 500, 0.1, false},
		{"2000x5000x64@0.002", 2000, 5000, 64, 0.002, false},
		{"1000x1000x1@0.05", 1000, 1000, 1, 0.05, false},
		{"1000x1000x10@0.05", 1000, 1000, 10, 0.05, false},
	} {
		b.Run(s.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			d := tensor.RandSparse(rng, s.n, s.k, s.density)
			if s.absent {
				d.Set(s.n/2, s.k/2, 0)
			}
			a := sparse.FromDense(d)
			y := tensor.RandNormal(rng, s.k, s.m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = a.MulDenseK(tensor.K{}, y)
			}
			b.ReportMetric(2*float64(a.NNZ())*float64(s.m)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// benchSink keeps the kernel benchmarks' results live.
var benchSink *tensor.Dense

// BenchmarkChainSeq is one warm operation of the benchmark's chain_seq
// workload (cmd/bench/lib.go: matmul chain S1 ÷ 40 under LocalTest(2) on
// the sequential engine, plan cached). `make profile-chain` profiles it.
func BenchmarkChainSeq(b *testing.B) {
	g, inputs, err := workload.Spec{Workload: "chain", Scale: 40}.Normalized().Build()
	if err != nil {
		b.Fatal(err)
	}
	cl := costmodel.LocalTest(2)
	p, err := matopt.NewOptimizer(cl).Optimize(matopt.NewBuilderFromGraph(g))
	if err != nil {
		b.Fatal(err)
	}
	x := matopt.NewExecutor(cl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Run(p, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInverseCold is one operation of the benchmark's inverse_cold
// workload (cmd/bench/lib.go: Figure 9's two-level block inverse ÷ 80
// under LocalTest(2) on the sequential engine) without its digest: build
// the graph, then a new Optimizer, so that Optimize runs a full Frontier
// search, then Physical, plan.Encode and Run. It is BenchmarkChainSeq's
// twin for a cold operation: BenchmarkFrontierInverseCold
// (internal/core) times the search alone. `make profile-inverse`
// profiles it.
func BenchmarkInverseCold(b *testing.B) {
	spec := workload.Spec{Workload: "inverse", Scale: 80}.Normalized()
	_, inputs, err := spec.Build()
	if err != nil {
		b.Fatal(err)
	}
	cl := costmodel.LocalTest(2)
	x := matopt.NewExecutor(cl)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := spec.Graph()
		if err != nil {
			b.Fatal(err)
		}
		opt := matopt.NewOptimizer(cl)
		p, err := opt.Optimize(matopt.NewBuilderFromGraph(g))
		if err != nil {
			b.Fatal(err)
		}
		pp, err := p.Physical()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := plan.Encode(pp, opt.Env()); err != nil {
			b.Fatal(err)
		}
		if _, err := x.Run(p, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// benchChainDist is one warm operation of the benchmark's chain_dist_tcp
// workload (cmd/bench/lib.go: matmul chain S2 ÷ 100 under LocalTest(2) on
// 2 dist shards, plan cached, one warm-up run). With tcp, shard 1 lives
// behind an in-process netfabric worker on a loopback socket; without,
// both shards exchange over channels — the twin that prices the wire.
func benchChainDist(b *testing.B, tcp bool) {
	g, inputs, err := workload.Spec{Workload: "chain", SizeSet: 2, Scale: 100}.Normalized().Build()
	if err != nil {
		b.Fatal(err)
	}
	cl := costmodel.LocalTest(2)
	p, err := matopt.NewOptimizer(cl).Optimize(matopt.NewBuilderFromGraph(g))
	if err != nil {
		b.Fatal(err)
	}
	opts := []matopt.ExecutorOption{matopt.WithEngineKind(matopt.DistEngine), matopt.WithShards(2)}
	if tcp {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		srv, done := netfabric.NewServer(), make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		defer func() {
			srv.Close()
			if err := <-done; err != nil {
				b.Error(err)
			}
		}()
		opts = append(opts, matopt.WithPeers(matopt.LocalPeer, ln.Addr().String()))
	}
	x := matopt.NewExecutor(cl, opts...)
	if _, err := x.Run(p, inputs); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := x.Run(p, inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkChainDistTCP is the chain_dist_tcp op; `make profile-chain-tcp`
// profiles it. BenchmarkChainDistChan is the same plan on the chan
// transport: the difference between the two is what the wire costs.
func BenchmarkChainDistTCP(b *testing.B) { benchChainDist(b, true) }

func BenchmarkChainDistChan(b *testing.B) { benchChainDist(b, false) }

// --- ablation benches for the design choices DESIGN.md calls out ---

// Ablation: how much the global optimizer buys over SystemDS-style local
// choice on the FFNN (the transformation-cost integration is the paper's
// key idea).
func BenchmarkAblationGlobalVsLocal(b *testing.B) {
	g, err := workload.FFNNW2Update(workload.PaperFFNN(80000))
	if err != nil {
		b.Fatal(err)
	}
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	for i := 0; i < b.N; i++ {
		auto, err := core.Optimize(g, env)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(auto.Total(), "auto-sim-sec")
	}
}

// Ablation: format-universe restriction (the §8.4 sets) on plan quality.
func BenchmarkAblationFormatUniverse(b *testing.B) {
	g, err := workload.MatMulChain(workload.ChainSizeSets()[0])
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		for _, fs := range [][]format.Format{format.All(), format.SingleStripBlock(), format.SingleBlock()} {
			env := core.NewEnv(costmodel.EC2R5D(10), fs)
			ann, err := core.Optimize(g, env)
			if err != nil {
				b.Fatal(err)
			}
			_ = ann.Total()
		}
	}
}
