package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"matopt"
	"matopt/internal/benchkit"
	"matopt/internal/core"
	"matopt/internal/engine"
	"matopt/internal/netfabric"
	"matopt/internal/plan"
	"matopt/internal/pool"
	"matopt/internal/tensor"
)

// reps calls fn at least min times and then until budget is spent or
// max calls are made, and returns each call's seconds.
func reps(min, max int, budget time.Duration, fn func() error) ([]float64, error) {
	var secs []float64
	start := time.Now()
	for n := 0; n < min || (n < max && time.Since(start) < budget); n++ {
		t0 := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return secs, nil
}

// scaled returns n milliseconds, or a twentieth of that when quick.
func scaled(n int, quick bool) time.Duration {
	d := time.Duration(n) * time.Millisecond
	if quick {
		d /= 20
	}
	return d
}

// median1 is reps reduced to its median.
func median1(min, max int, budget time.Duration, fn func() error) (float64, error) {
	secs, err := reps(min, max, budget, fn)
	return benchkit.Median(secs), err
}

// machineProbes times the kernels' public functions at fixed shapes,
// and the machine under them, so a kernel's rate has its roofline in
// the same run. They are the same on every workload. quick (-smoke)
// shrinks the shapes and the time spent, and with them the meaning of
// the numbers.
func machineProbes(rec *benchkit.Record, quick bool) {
	ms := func(n int) time.Duration { return scaled(n, quick) }
	big := 512
	if quick {
		big = 128
	}
	threads := runtime.GOMAXPROCS(0)
	rng := rand.New(rand.NewSource(1))
	gemm := func(k tensor.K, n, inner int) float64 {
		a, b := randNormal(rng, n, n), randNormal(rng, n, n)
		s, _ := median1(3, 9, ms(400), func() error {
			for i := 0; i < inner; i++ {
				k.MatMul(a, b)
			}
			return nil
		})
		return 2 * float64(n) * float64(n) * float64(n) * float64(inner) / s / 1e9
	}
	serial := gemm(tensor.K{Threads: 1}, big, 1)
	auto := gemm(tensor.Auto(), big, 1)
	rec.Put("tensor.gemm_serial_gflops", serial, "GFLOP/s")
	rec.Put("tensor.gemm_auto_gflops", auto, "GFLOP/s")
	rec.Put("tensor.thread_speedup", auto/serial, "ratio")
	rec.Put("tensor.gemm_small_gflops", gemm(tensor.Auto(), 64, 200), "GFLOP/s")

	const ewN = 1 << 22 // 4 M elements: 32 MiB per operand
	x, y := randNormal(rng, 1, ewN), randNormal(rng, 1, ewN)
	s, _ := median1(3, 9, ms(300), func() error {
		tensor.Auto().Add(x, y)
		return nil
	})
	rec.Put("tensor.ew_gb_s", 24*ewN/s/1e9, "GB/s")

	const forks = 2000
	s, _ = median1(5, 25, ms(100), func() error {
		for i := 0; i < forks; i++ {
			pool.For(threads, threads, 1, func(lo, hi int) {})
		}
		return nil
	})
	rec.Put("pool.fork_join_us", s/forks*1e6, "us")

	peak := benchkit.PeakGFLOPS(threads, ms(200))
	rec.Put("machine.peak_gflops", peak, "GFLOP/s")
	rec.Put("tensor.gemm_roofline_frac", auto/peak, "ratio")
	const triadN = 1 << 23 // three arrays of 64 MiB
	rec.Put("machine.mem_bw_gb_s", benchkit.TriadGBs(triadN, threads, ms(300)), "GB/s")
	rec.Put("machine.triad_mb", 3*8*triadN/float64(1<<20), "MB")
	rec.Put("machine.llc_mb", llcMB(), "MB")
}

// layerProbes times each layer's public functions on one computation —
// the workload's own graph and inputs — from outside: a cold search
// (parallel and serial), a plan-cache hit, lowering, the plan codec, and
// the same lowered plan on the sequential engine, dist over channels
// and dist over loopback TCP, within a few seconds of each other so
// their ratios see the same machine. The three engines' outputs must be
// the same bytes. budget
// bounds the engine runs; the rest takes a second or two, less when
// quick.
func layerProbes(rec *benchkit.Record, g *core.Graph, inputs map[string]*tensor.Dense, budget time.Duration, quick bool) error {
	ms := func(n int) time.Duration { return scaled(n, quick) }
	newBuilder := func() *matopt.Builder { return matopt.NewBuilderFromGraph(g) }

	// core + plan: every rep is a new Optimizer, so a full search and a
	// first lowering.
	var p *matopt.Plan
	var pp *plan.Plan
	var opt *matopt.Optimizer
	var lower []float64
	search := func(opts ...matopt.Option) (secs []float64, err error) {
		start := time.Now()
		for n := 0; n < 2 || (n < 5 && time.Since(start) < ms(1000)); n++ {
			opt = matopt.NewOptimizer(cluster, opts...)
			t0 := time.Now()
			if p, err = opt.Optimize(newBuilder()); err != nil {
				return nil, err
			}
			t1 := time.Now()
			if pp, err = p.Physical(); err != nil {
				return nil, err
			}
			secs = append(secs, t1.Sub(t0).Seconds())
			lower = append(lower, time.Since(t1).Seconds())
		}
		return secs, nil
	}
	serialS, err := search(matopt.WithParallelism(1))
	if err != nil {
		return fmt.Errorf("serial optimize: %w", err)
	}
	var parS []float64
	withProcs(runtime.NumCPU(), func() { parS, err = search() })
	if err != nil {
		return fmt.Errorf("optimize: %w", err)
	}
	stats := p.OptimizerStats()
	optS := benchkit.Median(parS)
	rec.Put("core.optimize_s", optS, "s")
	rec.Put("core.optimize_serial_s", benchkit.Median(serialS), "s")
	rec.Put("core.candidates_evaluated", float64(stats.CandidatesEvaluated), "count")
	rec.Put("core.entries_pruned", float64(stats.EntriesPruned), "count")
	rec.Put("core.classes_expanded", float64(stats.ClassesExpanded), "count")
	rec.Put("core.candidates_per_s", float64(stats.CandidatesEvaluated)/optS, "1/s")
	rec.Put("core.predicted_s", p.PredictedSeconds(), "s")
	rec.Put("plan.lower_s", benchkit.Median(lower), "s")
	rec.Put("plan.nodes", float64(len(pp.Nodes)), "count")

	const hits = 200
	hitS, err := median1(3, 9, ms(200), func() error {
		for i := 0; i < hits; i++ {
			if q, err := opt.Optimize(newBuilder()); err != nil || !q.Cached() {
				return fmt.Errorf("warm optimize missed the plan cache (err %v)", err)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rec.Put("plancache.hit_s", hitS/hits, "s")

	var data []byte
	encS, err := median1(3, 20, ms(300), func() (err error) {
		data, err = plan.Encode(pp, opt.Env())
		return err
	})
	if err != nil {
		return fmt.Errorf("plan.Encode: %w", err)
	}
	decS, err := median1(3, 20, ms(300), func() error {
		_, err := plan.Decode(g, opt.Env(), data)
		return err
	})
	if err != nil {
		return fmt.Errorf("plan.Decode: %w", err)
	}
	rec.Put("plan.encode_s", encS, "s")
	rec.Put("plan.decode_s", decS, "s")
	rec.Put("plan.encoded_bytes", float64(len(data)), "B")

	// engine, dist, netfabric: one lowered plan, three engines.
	wk, err := startWorker()
	if err != nil {
		return err
	}
	defer wk.stop()
	// Each engine runs its repetitions back to back, as a caller's
	// would be, after one untimed run that fills its caches and pools.
	runS := map[string][]float64{}
	var seqX *matopt.Executor
	var tcpReps []*matopt.DistReport
	var want [32]byte
	var flops0 int64
	for i, k := range []string{"seq", "chan", "tcp"} {
		x := executor(k, wk.addr, nil)
		first := true
		runS[k], err = reps(4, 12, budget/3, func() error {
			outs, err := x.Run(p, inputs)
			if err != nil {
				return err
			}
			if sum := digest(outs); i == 0 && first {
				want = sum
			} else if sum != want {
				return errors.New("run produced other bytes than the first sequential run")
			}
			if k == "tcp" && !first {
				tcpReps = append(tcpReps, x.DistReport())
			}
			if k == "seq" && first {
				seqX, flops0 = x, x.Stats().FLOPs
			}
			first = false
			return nil
		})
		if err != nil {
			return fmt.Errorf("%s run: %w", k, err)
		}
		runS[k] = runS[k][1:]
		runtime.GC() // this engine's garbage is not the next one's bill
	}
	seqS, chanS, tcpS := benchkit.Median(runS["seq"]), benchkit.Median(runS["chan"]), benchkit.Median(runS["tcp"])
	flops := float64(seqX.Stats().FLOPs-flops0) / float64(len(runS["seq"]))
	rec.Put("engine.run_s", seqS, "s")
	rec.Put("engine.flops", flops, "count")
	rec.Put("engine.gflops", flops/seqS/1e9, "GFLOP/s")
	rec.Put("costmodel.pred_over_meas", p.PredictedSeconds()/seqS, "ratio")
	rec.Put("dist.run_s", tcpS, "s")
	rec.Put("dist.chan_run_s", chanS, "s")
	rec.Put("dist.over_seq", chanS/seqS, "ratio")
	rec.Put("netfabric.tcp_over_chan", tcpS/chanS, "ratio")

	med := func(f func(*matopt.DistReport) float64) float64 {
		xs := make([]float64, len(tcpReps))
		for i, r := range tcpReps {
			xs[i] = f(r)
		}
		return benchkit.Median(xs)
	}
	kernel := med(func(r *matopt.DistReport) float64 { return r.KernelTime.Seconds() })
	busy := med(func(r *matopt.DistReport) float64 { return r.TotalBusy().Seconds() })
	rec.Put("dist.kernel_s", kernel, "s")
	rec.Put("dist.busy_s", busy, "s")
	rec.Put("dist.nonkernel_busy_s", busy-kernel, "s")
	rec.Put("dist.idle_frac", med(func(r *matopt.DistReport) float64 {
		return 1 - r.TotalBusy().Seconds()/(float64(r.Shards)*r.Wall.Seconds())
	}), "ratio")
	rec.Put("dist.busiest_shard_frac", med(func(r *matopt.DistReport) float64 {
		return r.BusiestShard().Seconds() / r.Wall.Seconds()
	}), "ratio")
	rec.Put("dist.peak_bytes", med(func(r *matopt.DistReport) float64 { return float64(r.PeakBytes) }), "B")
	last := tcpReps[len(tcpReps)-1]
	rec.Put("dist.net_bytes", float64(last.NetBytes), "B")
	rec.Put("dist.messages", float64(last.Messages), "count")
	rec.Put("dist.retries", float64(last.Retries), "count")
	rec.Put("netfabric.wire_bytes", float64(last.WireBytes), "B")
	rec.Put("netfabric.wire_messages", float64(last.WireMessages), "count")
	rec.Put("netfabric.dials", float64(last.WireDials), "count")
	amp := 0.0
	if last.NetBytes > 0 {
		amp = float64(last.WireBytes) / float64(last.NetBytes)
	}
	rec.Put("netfabric.wire_amplification", amp, "ratio")

	// dist.exchange_s: the runtime's own "exchange" spans of one more
	// TCP run, read through the public tracing option.
	tr := matopt.NewTracer()
	if _, err := executor("tcp", wk.addr, tr).Run(p, inputs); err != nil {
		return fmt.Errorf("traced tcp run: %w", err)
	}
	rec.Put("dist.exchange_s", tr.Snapshot().DurationsByName()["exchange"].Seconds(), "s")

	// netfabric sessions at the plan's own message count and size.
	tcp, err := netfabric.NewTCP([]string{netfabric.LocalPeer, wk.addr})
	if err != nil {
		return err
	}
	defer tcp.Close()
	for name, tp := range map[string]netfabric.Transport{"tcp": tcp, "chan": netfabric.Chan()} {
		rate, err := sessionRate(tp, int(last.Messages), last.NetBytes, ms(500))
		if err != nil {
			return fmt.Errorf("%s session: %w", name, err)
		}
		rec.Put("netfabric."+name+"_session_mb_s", rate, "MB/s")
	}
	return nil
}

// sessionRate times Open · Send · Collect of msgs messages totalling
// about bytes payload bytes, all to shard 1 (the remote one under TCP),
// and returns payload MB/s; 0 when the plan moved nothing.
func sessionRate(tp netfabric.Transport, msgs int, bytes int64, budget time.Duration) (float64, error) {
	if msgs == 0 || bytes == 0 {
		return 0, nil
	}
	payload := tensor.NewDense(1, int(bytes/int64(msgs)/8)+1)
	attempt := 0
	s, err := median1(3, 9, budget, func() error {
		attempt++
		sess, err := tp.Open(context.Background(), nil,
			netfabric.ExchangeID{Vertex: 1, Kind: "shuffle", Label: "bench.probe", Attempt: attempt}, shards)
		if err != nil {
			return err
		}
		for i := 0; i < msgs; i++ {
			m := netfabric.Message{Key: engine.Key{I: int64(i)}, Seq: int64(i),
				Tuple: engine.Tuple{Key: engine.Key{I: int64(i)}, Dense: payload}}
			if err := sess.Send(1, m); err != nil {
				sess.Abandon()
				return err
			}
		}
		inboxes, err := sess.Collect()
		if err == nil && len(inboxes[1]) != msgs {
			err = errors.New("collect returned fewer messages than were sent")
		}
		return err
	})
	return float64(msgs) * float64(payload.Bytes()) / s / 1e6, err
}
