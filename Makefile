# Developer gate: `make check` is what CI runs and what a change must
# pass before merging. Individual targets are available for quick loops.

GO ?= go

.PHONY: check fmt vet build test test-purego test-avx2 poison nofma race chaos fuzz bench bench-smoke docs-check profile-frontier profile-chain profile-inverse profile-chain-tcp profile-serve

check: fmt vet build test test-purego test-avx2 poison nofma race chaos docs-check bench-smoke

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

# The multiply-accumulate primitives have three bindings (KERNELS.md §1):
# AVX-512 and AVX2 assembler, the widest the CPU has bound at init on
# amd64, and portable Go. `go test` runs whichever the host selects;
# test-purego runs the portable one and test-avx2 (on an AVX-512 host,
# where they would otherwise never be bound again) the AVX2 one under
# the kernels' own tests, the engines' golden suites and the root
# package's pinned output digest, which record one set of bits for all
# three.
KERNEL_SUITES = ./internal/tensor ./internal/sparse ./internal/engine ./internal/dist

test-purego:
	$(GO) test -tags purego $(KERNEL_SUITES)
	$(GO) test -tags purego -run TestPlanCacheEngineInvariance .

test-avx2:
	$(GO) test -tags noavx512 $(KERNEL_SUITES)
	$(GO) test -tags noavx512 -run TestPlanCacheEngineInvariance .

# The kernels draw storage off a free list without zeroing it where they
# write every element, and both runtimes recycle what their plan or
# scheduler frees (DESIGN.md §15, Storage). Under the matopt_poison tag every such
# draw and every release is filled with a NaN: the kernel suites and the
# root package's pinned output digest must still reproduce their bits,
# which proves each kernel writes (or clears) every element it hands out
# and nothing reads storage after it is released. A Frontier search's
# scratch (DESIGN.md §7) is poisoned the same way, with junk keys, NaN
# costs and −1 indices: the recorded plan hashes must still match, and
# every class's keys must still follow its cells' back-pointers.
poison:
	$(GO) test -tags matopt_poison $(KERNEL_SUITES)
	$(GO) test -tags matopt_poison -run 'TestPlanCacheEngineInvariance|TestEnginesLeaveInputsUntouched' .
	$(GO) test -tags matopt_poison -run 'TestFrontierPlanIdentity|TestParallelFrontierMatchesSerial|TestSearchesShareScratch|TestClassKeysFollowBackPointers' ./internal/core

# KERNELS.md §2 Rule 3 — a product is rounded before it is added —
# checked on what the compiler emits: cross-build the two kernel packages
# for arm64 (where Go fuses x*y + z unless the product is converted) and
# for amd64 at v1 and v3 (where v3 may), and fail on any fused
# multiply-add in the objects or in the assembler sources.
nofma:
	@for target in "GOARCH=arm64" "GOARCH=amd64 GOAMD64=v1" "GOARCH=amd64 GOAMD64=v3"; do \
		for pkg in tensor sparse; do \
			obj=$$(mktemp) || exit 1; \
			env $$target $(GO) build -o $$obj ./internal/$$pkg || { rm -f $$obj; exit 1; }; \
			hits=$$($(GO) tool objdump $$obj | grep -E 'FN?M(ADD|SUB)'); rm -f $$obj; \
			if [ -n "$$hits" ]; then echo "fused multiply-add in internal/$$pkg ($$target):"; echo "$$hits"; exit 1; fi; \
		done; \
	done
	@if sed 's://.*::' internal/tensor/*.s internal/sparse/*.s 2>/dev/null | grep -nE 'FN?M(ADD|SUB)'; then \
		echo "fused multiply-add in an assembler source"; exit 1; fi

# The optimizer's parallel Frontier expansion, the engine's
# context-aware execution, the sharded dist runtime, the shared kernel
# worker pool and the tensor/sparse kernels that fork onto it, the plan
# layer (whose lowered IR is shared across concurrent engine runs), the
# metrics registry / tracer they hammer concurrently, the public
# package's singleflight coalescing, the serving layer's admission
# control and drain, and the LRU both caches share are the
# concurrency-bearing packages.
race:
	$(GO) test -race . ./internal/core/ ./internal/engine/ ./internal/dist/ ./internal/netfabric/ ./internal/obs/ ./internal/plan/ ./internal/serve/ ./internal/pool/ ./internal/tensor/ ./internal/sparse/ ./internal/lru/
	$(GO) test -race -count=10 -run TestFreeListConcurrent ./internal/tensor/

# The fault-injection sweep under the race detector: seeded crash /
# drop schedules, retry exhaustion and the cancellation / shutdown-gap
# checks must all recover bit-identically (or fail typed) and leak no
# goroutines. The ChaosNet rows inject network faults into
# the TCP transport — a peer severing connections mid-exchange, a
# worker departing mid-run (later dials refused) and a peer that never
# answers — and require the
# same bit-identical recovery or typed degradation. The pattern cannot
# go stale: before running, every |-alternative of it must list at least
# one test (go test -list), so deleting the last test an alternative
# names fails the target instead of silently matching nothing.
CHAOS_RUN = Chaos|Retries|Shutdown|Cancel|RandomFaults
chaos:
	@for alt in $$(echo '$(CHAOS_RUN)' | tr '|' ' '); do \
		$(GO) test -list "$$alt" . ./internal/dist/ | grep -qE '^(Test|Example|Fuzz)' || \
			{ echo "chaos: -run alternative '$$alt' matches no test in . or ./internal/dist/"; exit 1; }; \
	done
	$(GO) test -race -run '$(CHAOS_RUN)' . ./internal/dist/

# Every Fuzz* target in the tree — the wire codec's three, the plan
# decoder's one, the daemon's request bodies and the workload spec, the
# decoders of bytes that arrive from outside — for ten seconds each, one `go test -fuzz` per target as the tool requires. The
# default 60 s of minimizing each coverage-widening input would be the
# whole ten seconds on the plan payloads (several KB), so it is cut to
# one. Not part of check: the checked-in seed corpora already run under
# `test`; this is the search beyond them. A finding is written to the
# package's testdata/fuzz/ and fails every later `go test` until fixed.
fuzz:
	@for dir in $$(grep -rl --include='*_test.go' '^func Fuzz' . | xargs -n1 dirname | sort -u); do \
		for target in $$(grep -ho '^func Fuzz[A-Za-z0-9_]*' $$dir/*_test.go | cut -c6-); do \
			echo "$$dir $$target"; \
			$(GO) test -run '^$$' -fuzz "^$$target\$$" -fuzztime 10s -fuzzminimizetime 1s $$dir || exit 1; \
		done; \
	done

# Every exported identifier in the public matopt package, the shared
# physical-plan IR, the serving layer, the workload catalogue (home of
# the request Spec), the dist runtime (home of the execution Config
# every surface documents itself by) and the engine (home of the
# operator table) must carry a doc comment; docscheck prints one
# file:line per miss.
docs-check:
	$(GO) run ./cmd/docscheck -dir .
	$(GO) run ./cmd/docscheck -dir ./internal/dist
	$(GO) run ./cmd/docscheck -dir ./internal/engine
	$(GO) run ./cmd/docscheck -dir ./internal/plan
	$(GO) run ./cmd/docscheck -dir ./internal/serve
	$(GO) run ./cmd/docscheck -dir ./internal/workload
	$(GO) run ./cmd/docscheck -dir ./internal/pool
	$(GO) run ./cmd/docscheck -dir ./internal/netfabric
	$(GO) run ./cmd/docscheck -dir ./internal/lru

# cmd/bench is a module of its own, so `go build ./... && go test ./...`
# skips it — yet it compiles against engine.Key, engine.Tuple,
# netfabric.Message and Executor.Stats().FLOPs. Vet it and run its smoke
# tests (~7 s) so a refactor that breaks that surface fails here, before
# a benchmark run does.
bench-smoke:
	$(GO) vet -C cmd/bench ./...
	$(GO) test -C cmd/bench ./...

# The benchmark is cmd/bench (BENCHMARK.json: four workloads, end-to-end
# and per-layer metrics).
bench:
	bash cmd/bench/run.sh

# Profile first: a hundred cold serial Frontier searches of the benchmark's
# inverse_cold graph, each on the scratch the one before gave back
# (BenchmarkFrontierInverseCold/reused, internal/core), on one processor,
# with B/op, CPU and heap profiles and the test binary written to
# git-ignored frontier.{cpu,mem}.prof / frontier.test, then the 15
# hottest functions and the 8 sites that allocate the most bytes.
profile-frontier:
	$(GO) test -run '^$$' -bench 'BenchmarkFrontierInverseCold/reused' -benchtime 100x -cpu 1 -benchmem \
		-cpuprofile frontier.cpu.prof -memprofile frontier.mem.prof -o frontier.test ./internal/core
	$(GO) tool pprof -top -nodecount 15 frontier.test frontier.cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 8 frontier.test frontier.mem.prof

# The same for the kernels: twenty warm operations of the benchmark's
# chain_seq workload (BenchmarkChainSeq) on one processor, with B/op,
# profiles and test binary written to git-ignored chain.{cpu,mem}.prof /
# chain.test, then the 12 hottest functions and the 8 sites that
# allocate the most bytes.
profile-chain:
	$(GO) test -run '^$$' -bench BenchmarkChainSeq -benchtime 20x -cpu 1 -benchmem \
		-cpuprofile chain.cpu.prof -memprofile chain.mem.prof -o chain.test .
	$(GO) tool pprof -top -nodecount 12 chain.test chain.cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 8 chain.test chain.mem.prof

# And for a cold operation: two hundred operations of the benchmark's
# inverse_cold workload without the digest (BenchmarkInverseCold: build,
# a new Optimizer's full Frontier search, lowering, plan.Encode and the
# run) on one processor, with B/op, profiles and test binary written to
# git-ignored inverse.{cpu,mem}.prof / inverse.test, then the 15 hottest
# functions and the 8 sites that allocate the most bytes.
profile-inverse:
	$(GO) test -run '^$$' -bench 'BenchmarkInverseCold$$' -benchtime 200x -cpu 1 -benchmem \
		-cpuprofile inverse.cpu.prof -memprofile inverse.mem.prof -o inverse.test .
	$(GO) tool pprof -top -nodecount 15 inverse.test inverse.cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 8 inverse.test inverse.mem.prof

# And for the wire: twenty warm operations of the benchmark's
# chain_dist_tcp workload (BenchmarkChainDistTCP: 2 dist shards, shard 1
# behind an in-process loopback worker) on one processor, with B/op,
# profiles and test binary written to git-ignored
# chain-tcp.{cpu,mem}.prof / chain-tcp.test, then the 15 hottest
# functions and the 8 sites that allocate the most bytes.
# BenchmarkChainDistChan is the same plan without the wire.
profile-chain-tcp:
	$(GO) test -run '^$$' -bench 'BenchmarkChainDistTCP$$' -benchtime 20x -cpu 1 -benchmem \
		-cpuprofile chain-tcp.cpu.prof -memprofile chain-tcp.mem.prof -o chain-tcp.test .
	$(GO) tool pprof -top -nodecount 15 chain-tcp.test chain-tcp.cpu.prof
	$(GO) tool pprof -sample_index=alloc_space -top -nodecount 8 chain-tcp.test chain-tcp.mem.prof

# And for the serving layer: two thousand warm /execute requests of each
# of served_mix's two serve-bound classes (BenchmarkServeExecute:
# exec_small, exec_bigreply) through Server.Handler() on one processor,
# profile and test binary written to git-ignored serve.cpu.prof /
# serve.test, then the 30 hottest functions. What is not the engine
# there is the envelope.
profile-serve:
	$(GO) test -run '^$$' -bench BenchmarkServeExecute -benchtime 2000x -benchmem -cpu 1 \
		-cpuprofile serve.cpu.prof -o serve.test ./internal/serve
	$(GO) tool pprof -top -nodecount 30 serve.test serve.cpu.prof
