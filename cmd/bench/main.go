// Command bench is matopt's one benchmark: four workloads, three
// end-to-end metrics measured with tracing off, and a traced run that
// gives every layer's numbers. BENCHMARK.json at the repository root is
// its contract; README.md beside this file is its manual.
//
//	bash cmd/bench/run.sh                          all workloads, both runs each
//	bash cmd/bench/run.sh -workload chain_seq      one workload, end-to-end run
//	bash cmd/bench/run.sh -workload chain_seq -trace 1 -trace-dir /tmp/t
//	bash cmd/bench/run.sh -compare a.json b.json   verdict per workload × metric
//	bash cmd/bench/run.sh -smoke                   every code path, seconds
//
// With -workload it measures in this process and prints, last on
// standard output, the one-line JSON result the contract defines.
// Without, it runs each workload's two runs in fresh child processes (no
// shared heap, plan cache or RSS high-water mark) and prints every
// metric. It exits non-zero when any operation fails verification.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"matopt/internal/benchkit"
	"matopt/internal/obs"
)

// processStart is when this process began: the first set-up is billed
// from here.
var processStart = time.Now()

// defaultSeconds is the run_seconds of BENCHMARK.json.
const defaultSeconds = 20

// setupReps is how many times the end-to-end run sets the workload up;
// setup_s is the median, so the cold first one does not decide it.
const setupReps = 5

// workloadProcs is the GOMAXPROCS every workload is set up and measured
// under. The reference box lends two virtual processors of a shared
// host, and the second comes and goes: two busy threads measure the
// host's scheduler, one measures the program. What the program gains
// from a second processor is the layer probes' to say (they run on all).
const workloadProcs = 1

// options are the command line.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	out      string
	traceDir string
	runs     int
	force    bool
	compare  bool
	smoke    bool
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run this one workload in-process (default: all, each in a child process)")
	flag.Int64Var(&o.seed, "seed", 1, "seed of every generated input; with -runs, the first of consecutive seeds")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "length of the measured pass")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 = end-to-end run, tracing off; 1 = traced per-layer run")
	flag.StringVar(&o.out, "out", "", "also write the records to this file")
	flag.StringVar(&o.traceDir, "trace-dir", "", "write each traced run's Chrome trace_event file here")
	flag.IntVar(&o.runs, "runs", 1, "without -workload: repeat every workload this many times, on seeds seed, seed+1, ...")
	flag.BoolVar(&o.force, "force", false, "without -workload: measure even when the machine is busy")
	flag.BoolVar(&o.compare, "compare", false, "compare two record files: bench -compare parent.json change.json")
	flag.BoolVar(&o.smoke, "smoke", false, "run every workload and probe in-process at toy size and check the report is complete")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	switch {
	case o.compare:
		if flag.NArg() != 2 {
			return errors.New("-compare wants two record files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case o.smoke:
		return runSmoke()
	case o.seconds <= 0 || o.runs < 1 || o.trace < 0 || o.trace > 1:
		return errors.New("-seconds must be positive, -runs at least 1, -trace 0 or 1")
	case o.workload == "":
		return runAll(o)
	}
	w := findWorkload(o.workload)
	if w == nil {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	rec, err := runOne(w, runCfg{seed: o.seed, seconds: o.seconds, traced: o.trace == 1, traceDir: o.traceDir})
	if err != nil {
		return err
	}
	defs := endToEnd
	if rec.Traced {
		defs = perLayer
	}
	printRecord(rec, defs)
	if o.out != "" {
		if err := benchkit.WriteSet(o.out, []benchkit.Record{*rec}); err != nil {
			return err
		}
	}
	line, err := rec.ContractLine(names(defs))
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", line)
	if !rec.Correct {
		return fmt.Errorf("%s: %d of %d operations failed verification", w.name, rec.Failed, rec.Attempted)
	}
	return nil
}

// runCfg is what one run of one workload is asked to do.
type runCfg struct {
	seed     int64
	seconds  float64
	traced   bool
	traceDir string
	// smoke measures a few operations at a quarter of every dimension and
	// cuts the probes short: it exercises the code, not the machine.
	smoke bool
}

// limits sizes the workload and its passes for this run.
func (c runCfg) limits(w *workload) limits {
	if c.smoke {
		return limits{seconds: c.seconds, maxOps: w.smokeOps, shrink: 4, warmups: 1}
	}
	return limits{seconds: c.seconds, minOps: passMinOps, shrink: 1, warmups: w.warmups}
}

// runOne measures one workload in this process: the end-to-end run
// (tracing off) or the traced per-layer run.
func runOne(w *workload, cfg runCfg) (*benchkit.Record, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(workloadProcs))
	rec := benchkit.NewRecord(w.name, cfg.seed, cfg.seconds, cfg.traced, stampEnv(processStart))
	var err error
	if cfg.traced {
		err = tracedRun(w, cfg, rec)
	} else {
		err = endToEndRun(w, cfg, rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	rec.Correct = rec.Failed == 0
	return rec, nil
}

// endToEndRun sets the workload up (setupReps times, keeping the last),
// measures one pass with tracing off, and only then spends time on the
// oracle. Both times are corrected for the host's slowdown, read after
// every set-up and all through the pass (steady.go).
func endToEndRun(w *workload, cfg runCfg, rec *benchkit.Record) error {
	lim := cfg.limits(w)
	h := newHost()
	var inst instance
	var setups, slow []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		} else {
			inst.close()
		}
		var err error
		if inst, err = w.setup(cfg.seed, lim); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		slow = append(slow, h.slowdown())
	}
	defer inst.close()

	runtime.GC() // set-up's garbage is not the first operations' bill
	res := steadyPass(inst, lim, h)
	runtime.GC()
	var oracleErr error
	withProcs(runtime.NumCPU(), func() { oracleErr = inst.verify() }) // the oracle may use the whole machine
	tally(rec, res, oracleErr)

	// The set-ups take a few seconds together, less than the host's
	// phases last: one slowdown, the median of the readings, serves all.
	rec.Put("setup_s", benchkit.Median(setups)/benchkit.Median(slow), "s")
	rec.Put("op_p50_s", benchkit.Median(res.lat), "s")
	rec.Put("ops_per_s", float64(len(res.lat))/res.wall, "1/s")
	return nil
}

// withProcs runs fn under GOMAXPROCS n and puts the old setting back.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// tally counts a pass's operations into rec; a failed oracle check fails
// them all, because every operation was only held to the first one's
// bytes.
func tally(rec *benchkit.Record, res passResult, oracleErr error) {
	rec.Attempted += len(res.lat)
	rec.Failed += res.failed
	if oracleErr != nil {
		fmt.Fprintln(os.Stderr, "bench: verification failed:", oracleErr)
		rec.Failed = rec.Attempted
	}
}

// tracedRun measures the per-layer metrics: an untraced and a traced
// pass of the workload (their difference is the tracing overhead), then
// the layer probes on the workload's own computation and the machine
// probes. The time asked for is split 3 : 3 : 2 between the two passes
// and the engine probes. Its times are as measured, not corrected for
// the host: machine.ref_slowdown says what the host was doing.
func tracedRun(w *workload, cfg runCfg, rec *benchkit.Record) error {
	lim := cfg.limits(w)
	lim.seconds = cfg.seconds * 3 / 8
	inst, err := w.setup(cfg.seed, lim)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()

	runtime.GC()
	h := newHost()
	slow := []float64{h.slowdown()}
	cache0, use0 := readPlanCache(), readUsage()
	plain := inst.pass(lim, nil)
	cache1, use1 := readPlanCache(), readUsage()
	slow = append(slow, h.slowdown())
	runtime.GC()
	spans := benchkit.NewRecorder()
	traced := inst.pass(lim, spans)
	slow = append(slow, h.slowdown())
	runtime.GC()
	var oracleErr error
	withProcs(runtime.NumCPU(), func() { oracleErr = inst.verify() })
	tally(rec, plain, nil)
	tally(rec, traced, oracleErr)

	for _, d := range perLayer {
		rec.Put(d.name, 0, d.unit)
	}
	rec.Put("machine.ref_slowdown", benchkit.Median(slow), "ratio")
	n := float64(len(plain.lat))
	rec.Put("bench.op_p50_s", benchkit.Median(plain.lat), "s")
	rec.Put("bench.op_p90_s", tailAt(plain.lat, 0.90), "s")
	rec.Put("bench.op_iqr_frac", benchkit.IQRFrac(plain.lat), "ratio")
	rec.Put("bench.cpu_s_per_op", (use1.cpuS-use0.cpuS)/n, "s")
	rec.Put("bench.alloc_mb_per_op", float64(use1.allocB-use0.allocB)/n/(1<<20), "MB")
	rec.Put("bench.gc_pause_ms", (use1.gcPauseS-use0.gcPauseS)*1e3, "ms")
	rec.Put("bench.samples", n, "count")
	all := spans.Spans()
	rec.Put("bench.span_coverage", benchkit.Coverage(all, "op"), "ratio")
	rec.Put("obs.spans_per_op", float64(len(all))/float64(len(traced.lat)), "count")
	rec.Put("obs.trace_overhead_frac", benchkit.Median(traced.lat)/benchkit.Median(plain.lat)-1, "ratio")

	hits, misses := cache1.hits-cache0.hits, cache1.misses-cache0.misses
	if hits+misses > 0 {
		rec.Put("plancache.hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	rec.Put("plancache.misses", float64(misses), "count")
	rec.Put("plancache.coalesced", float64(cache1.coalesced-cache0.coalesced), "count")
	if plain.class != nil {
		putServeMetrics(rec, plain)
	}

	g, inputs := inst.probeTarget()
	if err := layerProbes(rec, g, inputs, time.Duration(cfg.seconds/4*float64(time.Second)), cfg.smoke); err != nil {
		fmt.Fprintln(os.Stderr, "bench: layer probes failed:", err)
		rec.Failed = rec.Attempted
	}
	withProcs(runtime.NumCPU(), func() { machineProbes(rec, cfg.smoke) }) // they measure thread scaling
	rec.Put("bench.peak_rss_mb", readUsage().peakRSSMiB, "MB")

	if cfg.traceDir != "" {
		return writeTrace(cfg.traceDir, w.name, cfg.seed, all)
	}
	return nil
}

// tailAt returns the q-quantile of xs when the sample is large enough to
// support it — at least ten samples beyond it — and 0 otherwise.
func tailAt(xs []float64, q float64) float64 {
	if p, ok := benchkit.TailPercentile(len(xs)); !ok || p < q {
		return 0
	}
	return benchkit.Quantile(xs, q)
}

// planCache is a reading of the process-wide plan-cache counters.
type planCache struct{ hits, misses, coalesced int64 }

func readPlanCache() planCache {
	reg := obs.Default()
	return planCache{
		hits:      reg.Counter("matopt.plancache.hits").Value(),
		misses:    reg.Counter("matopt.plancache.misses").Value(),
		coalesced: reg.Counter("matopt.plancache.coalesced").Value(),
	}
}

// putServeMetrics derives the serve layer's numbers from a served_mix
// pass: per-class median latencies, and the overhead — a request's
// latency minus the engine time its reply reports (all of it for
// /optimize and /plan), time-weighted over the whole mix.
func putServeMetrics(rec *benchkit.Record, res passResult) {
	byClass := make([][]float64, len(classes))
	var total, overhead float64
	for i, lat := range res.lat {
		byClass[res.class[i]] = append(byClass[res.class[i]], lat)
		total += lat
		overhead += lat - res.inner[i]
	}
	for c, cl := range classes {
		rec.Put("serve."+cl.name+"_p50_s", benchkit.Median(byClass[c]), "s")
	}
	n := float64(len(res.lat))
	rec.Put("serve.overhead_s", overhead/n, "s")
	rec.Put("serve.overhead_frac", overhead/total, "ratio")
	rec.Put("serve.req_p99_s", tailAt(res.lat, 0.99), "s")
	rec.Put("serve.queue_wait_mean_s", res.queueWait, "s")
	rec.Put("serve.rejected", float64(res.rejected), "count")
	rec.Put("serve.resp_bytes_per_req", float64(res.bytes)/n, "B")
}

// writeTrace writes a traced run's spans as a Chrome trace_event file.
func writeTrace(dir, name string, seed int64, spans []benchkit.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d.trace.json", name, seed)))
	if err != nil {
		return err
	}
	if err := benchkit.WriteChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printRecord prints a run's metrics by name, with value and unit, in
// table order.
func printRecord(rec *benchkit.Record, defs []metricDef) {
	kind := "end-to-end, tracing off"
	if rec.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("%s  seed %d  %s  (%d ops, %d failed; %s, %d cpus, load %.2f, commit %.12s)\n",
		rec.Workload, rec.Seed, kind, rec.Attempted, rec.Failed,
		rec.Env.GoVersion, rec.Env.NumCPU, rec.Env.LoadAvg1, rec.Env.Commit)
	for _, d := range defs {
		if m, ok := rec.Metrics[d.name]; ok {
			fmt.Printf("  %-30s %16.6g %s\n", d.name, m.Value, m.Unit)
		}
	}
}

// runAll runs every workload's end-to-end and traced runs, each in a
// child process of this binary, runs times on consecutive seeds.
func runAll(o options) error {
	if load, limit := loadAvg1(), float64(runtime.NumCPU())/2; load > limit && !o.force {
		return fmt.Errorf("1-minute load average %.2f exceeds %.1f (half the processors): the machine is busy; -force measures anyway", load, limit)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// The children's records pass through files beside the binary, so
	// nothing is written outside the checkout.
	tmp, err := os.MkdirTemp(filepath.Dir(self), "runs-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)

	var records []benchkit.Record
	failed := false
	for _, w := range workloads {
		for r := 0; r < o.runs; r++ {
			for trace := 0; trace <= 1; trace++ {
				file := filepath.Join(tmp, fmt.Sprintf("%s-%d-%d.json", w.name, r, trace))
				args := []string{"-workload", w.name, "-seed", strconv.FormatInt(o.seed+int64(r), 10),
					"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace), "-out", file}
				if o.traceDir != "" {
					args = append(args, "-trace-dir", o.traceDir)
				}
				cmd := exec.Command(self, args...)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				runErr := cmd.Run()
				set, err := benchkit.ReadSet(file)
				if err != nil {
					return fmt.Errorf("%s: child left no record (%v): %w", w.name, runErr, err)
				}
				records = append(records, set.Records...)
				failed = failed || runErr != nil
			}
		}
	}
	if o.out != "" {
		if err := benchkit.WriteSet(o.out, records); err != nil {
			return err
		}
	}
	if failed {
		return errors.New("at least one run failed verification")
	}
	return nil
}

// runSmoke runs both runs of every workload in this process at toy size
// — two operations, every dimension a quarter, probes cut short — and
// checks that the report is complete and the outputs verify. It is what
// `go test` runs, so the harness cannot rot unnoticed.
func runSmoke() error {
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			rec, err := runOne(w, runCfg{seed: 1, seconds: 0.4, traced: traced, smoke: true})
			if err != nil {
				return err
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if _, err := rec.ContractLine(names(defs)); err != nil {
				return err
			}
			if !rec.Correct || rec.Attempted == 0 {
				return fmt.Errorf("%s: %d of %d operations failed", w.name, rec.Failed, rec.Attempted)
			}
			for _, d := range endToEnd {
				if !traced && !(rec.Metrics[d.name].Value > 0) {
					return fmt.Errorf("%s: %s = %v, want a positive number", w.name, d.name, rec.Metrics[d.name].Value)
				}
			}
			if cov := rec.Metrics["bench.span_coverage"].Value; traced && cov < 0.95 {
				return fmt.Errorf("%s: the op span's children cover %.3f of it, want at least 0.95", w.name, cov)
			}
			fmt.Printf("smoke %-15s traced=%-5v %d ops ok, %d metrics\n", w.name, traced, rec.Attempted, len(rec.Metrics))
		}
	}
	return nil
}
