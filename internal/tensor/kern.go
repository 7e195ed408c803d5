package tensor

import (
	"time"

	"matopt/internal/pool"
)

// K is the kernel context: how many threads a kernel may use and,
// optionally, where to report the time it spent. The zero value K{}
// runs every kernel serially, which is also what the package-level
// MatMul uses.
//
// Every kernel is bit-identical across thread counts: work is
// partitioned into contiguous row (or element) ranges with disjoint
// output regions, and the floating-point accumulation order for each
// output element — ascending k for GEMM, ascending row index for column
// sums — is the same no matter how the ranges are chunked. KERNELS.md
// carries the full argument.
type K struct {
	// Threads bounds how many chunks of a kernel may run concurrently
	// (the chunks execute on the shared pool in internal/pool, so the
	// process never exceeds GOMAXPROCS kernel threads regardless of how
	// many K values are active). Values ≤ 1 mean serial.
	Threads int
	// Timer, when non-nil, receives the wall nanoseconds of every kernel
	// invocation made through this context. The dist runtime uses it to
	// split vertex time into kernel vs. exchange in traces and reports.
	Timer func(ns int64)
}

// Auto returns a context that lets kernels use the whole machine
// (Threads = GOMAXPROCS). Layers that already run many executors
// concurrently should divide instead: see pool.Budget.
func Auto() K { return K{Threads: pool.MaxThreads()} }

// threads resolves the effective chunk budget: at least 1.
func (k K) threads() int {
	if k.Threads > 1 {
		return k.Threads
	}
	return 1
}

// begin starts the kernel timer; it returns the zero Time (and end does
// nothing) when no Timer is attached, so unmetered kernels pay only a
// nil check.
func (k K) begin() time.Time {
	if k.Timer == nil {
		return time.Time{}
	}
	return time.Now()
}

// end reports the elapsed time of a kernel started with begin.
func (k K) end(t0 time.Time) {
	if k.Timer != nil {
		k.Timer(time.Since(t0).Nanoseconds())
	}
}

// grainFor converts per-row (or per-element) work into the minimum
// rows a chunk must cover to clear the pool.MinParWork serial-size
// cutoff.
func grainFor(workPerUnit int) int { return pool.GrainFor(workPerUnit) }

// parRange splits [0, n) into deterministic contiguous chunks of at
// least g units and runs fn over them on the shared pool, honoring the
// context's thread budget. fn writes only inside its own range.
func (k K) parRange(n, g int, fn func(lo, hi int)) {
	pool.For(k.threads(), n, g, fn)
}

// Par splits [0, n) into deterministic contiguous chunks sized from the
// estimated scalar work per unit and runs fn over them under the
// context's thread budget. Exported for the sibling kernel package
// internal/sparse; dense kernels use it via their own wrappers.
func (k K) Par(n, workPerUnit int, fn func(lo, hi int)) {
	k.parRange(n, grainFor(workPerUnit), fn)
}
