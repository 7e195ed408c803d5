package main

// metricDef names one metric of the benchmark with its unit; the two
// tables below are the single list BENCHMARK.json, the printed report
// and the contract's result line are all checked against.
type metricDef struct {
	name, unit string
	// exact marks a count that must repeat exactly between two runs of
	// one seed on one commit.
	exact bool
	// higher says a larger value is the better one.
	higher bool
	// bound (end-to-end metrics only) is the share of the parent's
	// median by which the metric may get worse before -compare, like the
	// contract, calls it a regression.
	bound float64
}

// endToEnd lists what a user of the system waits for, measured with
// tracing off on one processor and reported in quiet-host seconds
// (steady.go). Failures are not a metric here because a metric may never
// read 0: they are the result line's attempted/failed counts. The bounds
// are the contract's widest: ten runs of one commit on the shared
// reference box spread by 1–9 % (interquartile range over median;
// README.md has the table) and by up to 12 % in the host's worst hours,
// and a bound should be a few spreads wide.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", bound: 0.25},
	{name: "op_p50_s", unit: "s", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", higher: true, bound: 0.25},
}

// perLayer lists the single-layer metrics of the traced run. Every run
// reports every one; a metric that has no meaning on a workload (serve.*
// on a library workload) reads 0.
var perLayer = []metricDef{
	{name: "core.optimize_s", unit: "s"},
	{name: "core.optimize_serial_s", unit: "s"},
	{name: "core.candidates_evaluated", unit: "count", exact: true},
	{name: "core.entries_pruned", unit: "count", exact: true},
	{name: "core.classes_expanded", unit: "count", exact: true},
	{name: "core.candidates_per_s", unit: "1/s", higher: true},
	{name: "core.predicted_s", unit: "s", exact: true},

	{name: "plancache.hit_s", unit: "s"},
	{name: "plancache.hit_ratio", unit: "ratio", higher: true},
	{name: "plancache.misses", unit: "count"},
	{name: "plancache.coalesced", unit: "count"},

	{name: "plan.lower_s", unit: "s"},
	{name: "plan.nodes", unit: "count", exact: true},
	{name: "plan.encode_s", unit: "s"},
	{name: "plan.decode_s", unit: "s"},
	{name: "plan.encoded_bytes", unit: "B", exact: true},

	{name: "engine.run_s", unit: "s"},
	{name: "engine.flops", unit: "count", exact: true},
	{name: "engine.gflops", unit: "GFLOP/s", higher: true},

	{name: "tensor.gemm_serial_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.gemm_auto_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.thread_speedup", unit: "ratio", higher: true},
	{name: "tensor.gemm_small_gflops", unit: "GFLOP/s", higher: true},
	{name: "tensor.ew_gb_s", unit: "GB/s", higher: true},
	{name: "tensor.gemm_roofline_frac", unit: "ratio", higher: true},
	{name: "pool.fork_join_us", unit: "us"},

	{name: "machine.peak_gflops", unit: "GFLOP/s", higher: true},
	{name: "machine.mem_bw_gb_s", unit: "GB/s", higher: true},
	{name: "machine.triad_mb", unit: "MB"},
	{name: "machine.llc_mb", unit: "MB"},
	{name: "machine.ref_slowdown", unit: "ratio"},

	{name: "dist.run_s", unit: "s"},
	{name: "dist.chan_run_s", unit: "s"},
	{name: "dist.over_seq", unit: "ratio"},
	{name: "dist.kernel_s", unit: "s"},
	{name: "dist.busy_s", unit: "s"},
	{name: "dist.nonkernel_busy_s", unit: "s"},
	{name: "dist.idle_frac", unit: "ratio"},
	{name: "dist.busiest_shard_frac", unit: "ratio"},
	{name: "dist.exchange_s", unit: "s"},
	{name: "dist.net_bytes", unit: "B", exact: true},
	{name: "dist.messages", unit: "count", exact: true},
	{name: "dist.peak_bytes", unit: "B"},
	{name: "dist.retries", unit: "count", exact: true},

	{name: "netfabric.wire_bytes", unit: "B", exact: true},
	{name: "netfabric.wire_messages", unit: "count", exact: true},
	{name: "netfabric.dials", unit: "count"},
	{name: "netfabric.wire_amplification", unit: "ratio"},
	{name: "netfabric.tcp_over_chan", unit: "ratio"},
	{name: "netfabric.tcp_session_mb_s", unit: "MB/s", higher: true},
	{name: "netfabric.chan_session_mb_s", unit: "MB/s", higher: true},

	{name: "serve.overhead_s", unit: "s"},
	{name: "serve.overhead_frac", unit: "ratio"},
	{name: "serve.optimize_p50_s", unit: "s"},
	{name: "serve.plan_p50_s", unit: "s"},
	{name: "serve.exec_small_p50_s", unit: "s"},
	{name: "serve.exec_dist_p50_s", unit: "s"},
	{name: "serve.exec_bigreply_p50_s", unit: "s"},
	{name: "serve.exec_large_p50_s", unit: "s"},
	{name: "serve.miss_p50_s", unit: "s"},
	{name: "serve.req_p99_s", unit: "s"},
	{name: "serve.queue_wait_mean_s", unit: "s"},
	{name: "serve.rejected", unit: "count", exact: true},
	{name: "serve.resp_bytes_per_req", unit: "B"},

	{name: "costmodel.pred_over_meas", unit: "ratio"},

	{name: "obs.trace_overhead_frac", unit: "ratio"},
	{name: "obs.spans_per_op", unit: "count"},

	{name: "bench.op_p50_s", unit: "s"},
	{name: "bench.op_p90_s", unit: "s"},
	{name: "bench.op_iqr_frac", unit: "ratio"},
	{name: "bench.cpu_s_per_op", unit: "s"},
	{name: "bench.alloc_mb_per_op", unit: "MB"},
	{name: "bench.peak_rss_mb", unit: "MB"},
	{name: "bench.gc_pause_ms", unit: "ms"},
	{name: "bench.span_coverage", unit: "ratio", higher: true},
	{name: "bench.samples", unit: "count", higher: true},
}

// names returns the metric names of defs in table order.
func names(defs []metricDef) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.name
	}
	return out
}
