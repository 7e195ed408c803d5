// Package pool provides the process-wide, GOMAXPROCS-bounded worker
// pool that every local compute kernel shares. The kernels in
// internal/tensor and internal/sparse split their row (or element)
// ranges into contiguous chunks and run the chunks here; the dist
// runtime's shards, the serving layer's request workers and the
// optimizer's Frontier search all execute kernels concurrently, so one
// shared pool is what keeps the process's total kernel threads bounded
// by the hardware instead of multiplying across layers.
//
// Two properties make the pool safe to call from anywhere:
//
//   - Submission never blocks. A chunk is handed to a worker only if one
//     is idle at that instant; otherwise the caller runs the chunk
//     inline. Nested or concurrent parallel sections therefore cannot
//     deadlock and cannot oversubscribe the machine — at most Workers()
//     chunks run on pool goroutines, and every caller contributes its
//     own thread.
//
//   - Chunk boundaries are a pure function of (threads, n, grain). Which
//     goroutine runs a chunk varies run to run; what each chunk covers
//     never does. Combined with the kernels' row-partitioned
//     accumulation this is what keeps parallel kernels bit-identical to
//     their serial counterparts (see KERNELS.md).
package pool

import (
	"runtime"
	"sync"
)

// Pool is a fixed set of worker goroutines that execute chunks of
// parallel-for loops. The zero value is not usable; construct with New.
// A nil *Pool is valid and runs everything on the caller.
type Pool struct {
	tasks   chan func()
	workers int
}

// New starts a pool with the given number of worker goroutines.
// Negative counts are clamped to zero; a zero-worker pool is valid and
// runs every chunk on the caller.
func New(workers int) *Pool {
	if workers < 0 {
		workers = 0
	}
	p := &Pool{tasks: make(chan func()), workers: workers}
	for i := 0; i < workers; i++ {
		go func() {
			for fn := range p.tasks {
				fn()
			}
		}()
	}
	return p
}

// Workers returns the number of worker goroutines the pool started
// with (0 for a nil pool).
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	return p.workers
}

// Chunks returns how many chunks For will split [0, n) into for the
// given thread budget and grain: min(threads, n/grain), at least 1 for
// a non-empty range. A chunk is never smaller than grain rows, which is
// the kernels' serial-size cutoff — when n < 2·grain the range stays in
// one chunk and For degenerates to a plain serial call.
func Chunks(threads, n, grain int) int {
	if n <= 0 {
		return 0
	}
	if grain < 1 {
		grain = 1
	}
	c := n / grain
	if c > threads {
		c = threads
	}
	if c < 1 {
		c = 1
	}
	return c
}

// chunkBounds returns the half-open bounds of chunk c of [0, n) split
// into chunks near-equal contiguous pieces.
func chunkBounds(c, chunks, n int) (lo, hi int) {
	return c * n / chunks, (c + 1) * n / chunks
}

// For runs fn over [0, n) split into Chunks(threads, n, grain)
// contiguous chunks: fn(lo, hi) covers rows [lo, hi). Chunk 0 always
// runs on the calling goroutine; the rest run on idle pool workers, or
// inline on the caller when no worker is free. For returns when every
// chunk has finished. fn must be safe to call concurrently on disjoint
// ranges.
func (p *Pool) For(threads, n, grain int, fn func(lo, hi int)) {
	chunks := Chunks(threads, n, grain)
	if chunks == 0 {
		return
	}
	if chunks == 1 || p.Workers() == 0 {
		for c := 0; c < chunks; c++ {
			fn(chunkBounds(c, chunks, n))
		}
		return
	}
	var wg sync.WaitGroup
	for c := 1; c < chunks; c++ {
		lo, hi := chunkBounds(c, chunks, n)
		task := func() {
			defer wg.Done()
			fn(lo, hi)
		}
		wg.Add(1)
		select {
		case p.tasks <- task:
			// An idle worker took the chunk.
		default:
			// Every worker is busy: run it here rather than queue —
			// queueing could deadlock nested sections and would not add
			// parallelism anyway.
			task()
		}
	}
	fn(chunkBounds(0, chunks, n))
	wg.Wait()
}

// shared is the process-wide pool the kernels use: GOMAXPROCS−1
// workers, because the caller of every parallel section contributes its
// own thread. On a single-CPU process the shared pool has no workers
// and every kernel stays serial.
var shared = New(runtime.GOMAXPROCS(0) - 1)

// For runs fn over [0, n) on the shared pool; see Pool.For.
func For(threads, n, grain int, fn func(lo, hi int)) {
	shared.For(threads, n, grain, fn)
}

// MaxThreads is the widest useful kernel thread budget: GOMAXPROCS.
func MaxThreads() int { return runtime.GOMAXPROCS(0) }

// MinParWork is the serial-size cutoff, in approximate scalar
// operations per chunk: a parallel section is only worth forking when
// every chunk carries at least this much work (≈tens of microseconds),
// comfortably above the ~1µs cost of handing a chunk to a worker.
// A kernel whose total work is below 2·MinParWork runs serially no
// matter how many threads its context allows.
const MinParWork = 1 << 15

// GrainFor converts estimated per-row (or per-element) work into the
// minimum rows a chunk must cover to clear the MinParWork cutoff.
func GrainFor(workPerUnit int) int {
	if workPerUnit < 1 {
		workPerUnit = 1
	}
	g := MinParWork / workPerUnit
	if g < 1 {
		g = 1
	}
	return g
}

// Budget divides the machine across active concurrent executors —
// GOMAXPROCS / active, floor 1. The dist runtime sizes per-shard kernel
// threads with it so shard parallelism and kernel parallelism compose
// without oversubscription: shards × Budget(shards) ≤ GOMAXPROCS (plus
// the remainder the non-blocking pool absorbs).
func Budget(active int) int {
	if active < 1 {
		active = 1
	}
	b := runtime.GOMAXPROCS(0) / active
	if b < 1 {
		b = 1
	}
	return b
}
