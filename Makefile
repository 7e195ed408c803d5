# Developer gate: `make check` is what CI runs and what a change must
# pass before merging. Individual targets are available for quick loops.

GO ?= go

.PHONY: check fmt vet build test race chaos bench bench-smoke docs-check

check: fmt vet build test race chaos docs-check bench-smoke

# gofmt -l prints unformatted files; fail if it prints anything.
fmt:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The optimizer's parallel Frontier expansion, the engine's
# context-aware execution, the sharded dist runtime, the shared kernel
# worker pool and the tensor/sparse kernels that fork onto it, the plan
# layer (whose lowered IR is shared across concurrent engine runs), the
# metrics registry / tracer they hammer concurrently, the public
# package's singleflight coalescing, and the serving layer's admission
# control and drain are the concurrency-bearing packages.
race:
	$(GO) test -race . ./internal/core/ ./internal/engine/ ./internal/dist/ ./internal/netfabric/ ./internal/obs/ ./internal/plan/ ./internal/serve/ ./internal/pool/ ./internal/tensor/ ./internal/sparse/

# The fault-injection sweep under the race detector: seeded crash /
# drop / delay / straggler schedules, cascading node-loss recovery,
# checkpoint-pinned reruns, speculative re-execution and the
# cancellation / shutdown-gap checks must all recover bit-identically
# and leak no goroutines. The ChaosNet rows inject network faults into
# the TCP transport — a peer severing connections mid-exchange and a
# worker departing mid-run (later dials refused) — and require the
# same bit-identical recovery or typed degradation.
chaos:
	$(GO) test -race -run 'Chaos|NodeLoss|Checkpoint|Speculat|Delayed|Retries|Deadline|Shutdown|Cancel|RandomFaults' \
		. ./internal/dist/

# Every exported identifier in the public matopt package, the shared
# physical-plan IR and the serving layer must carry a doc comment;
# docscheck prints one file:line per miss.
docs-check:
	$(GO) run ./cmd/docscheck -dir .
	$(GO) run ./cmd/docscheck -dir ./internal/plan
	$(GO) run ./cmd/docscheck -dir ./internal/serve
	$(GO) run ./cmd/docscheck -dir ./internal/pool
	$(GO) run ./cmd/docscheck -dir ./internal/netfabric

# cmd/bench is a module of its own, so `go build ./... && go test ./...`
# skips it — yet it compiles against engine.Key, engine.Tuple,
# netfabric.Message and Executor.Stats().FLOPs. Vet it and run its smoke
# tests (~7 s) so a refactor that breaks that surface fails here, before
# a benchmark run does.
bench-smoke:
	$(GO) vet -C cmd/bench ./...
	$(GO) test -C cmd/bench ./...

# Runs every benchmark once and records the dist-vs-sequential
# comparison in BENCH_dist.json (now with a span-derived phase_ns
# breakdown), the fault-tolerance overhead in BENCH_dist_faults.json
# (nofault_ns there should stay within noise of dist_ns here), the
# tracing overhead in BENCH_obs.json (untraced_ns should also stay
# within noise of dist_ns), and the plan layer's lowering / -explain /
# serialization costs in BENCH_plan.json (dist_plan_ns there is the
# same workload executed from a pre-lowered plan, so it too should stay
# within noise of dist_ns). BENCH_serve.json records the serving
# layer's warm-cache throughput, p50/p99 request latency, the direct
# in-process call it wraps, and the coalesce hit rate.
# BENCH_recovery.json records what a sink node loss costs with lineage
# recompute alone next to the same loss under checkpoint pins, and the
# memory the pins hold relative to the run's resident peak.
# BENCH_kernels.json records the compute-kernel layer: naive vs
# cache-blocked vs threaded GEMM per shape, a sparse SpMM point, and
# the dist runtime end to end with kernels forced serial vs
# auto-budgeted; on a multi-core host the benchmark fails if threaded
# GEMM regresses below serial (on a single-CPU host that gate is
# skipped with a warning — there is no parallelism to measure — and
# every record carries numcpu so a reader can tell).
# BENCH_netfabric.json compares the dist exchanges over the in-process
# chan transport and over loopback TCP through a worker server, with
# the framed wire bytes next to the cost model's NetBytesCeiling.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...
	BENCH_DIST_JSON=$(CURDIR)/BENCH_dist.json $(GO) test -run '^$$' \
		-bench BenchmarkDistVsSequential -benchtime 1x ./internal/dist/
	BENCH_DIST_FAULTS_JSON=$(CURDIR)/BENCH_dist_faults.json $(GO) test -run '^$$' \
		-bench BenchmarkDistFaultOverhead -benchtime 1x ./internal/dist/
	BENCH_OBS_JSON=$(CURDIR)/BENCH_obs.json $(GO) test -run '^$$' \
		-bench BenchmarkDistTracingOverhead -benchtime 1x ./internal/dist/
	BENCH_PLAN_JSON=$(CURDIR)/BENCH_plan.json $(GO) test -run '^$$' \
		-bench BenchmarkPlanLowering -benchtime 1x ./internal/plan/
	BENCH_SERVE_JSON=$(CURDIR)/BENCH_serve.json $(GO) test -run '^$$' \
		-bench BenchmarkServeWarmOptimize -benchtime 200x ./internal/serve/
	BENCH_RECOVERY_JSON=$(CURDIR)/BENCH_recovery.json $(GO) test -run '^$$' \
		-bench BenchmarkRecovery -benchtime 1x ./internal/dist/
	BENCH_KERNELS_JSON=$(CURDIR)/BENCH_kernels.json $(GO) test -run '^$$' \
		-bench BenchmarkKernels -benchtime 1x ./internal/dist/
	BENCH_NETFABRIC_JSON=$(CURDIR)/BENCH_netfabric.json $(GO) test -run '^$$' \
		-bench BenchmarkNetfabric -benchtime 1x ./internal/dist/
