package pool

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestChunksBoundaries pins the chunk-count function at the serial-size
// cutoff: a range under 2·grain stays in one chunk (serial), exactly
// 2·grain forks into two, and the thread budget caps the count.
func TestChunksBoundaries(t *testing.T) {
	cases := []struct {
		name              string
		threads, n, grain int
		want              int
	}{
		{"empty range", 8, 0, 16, 0},
		{"negative range", 8, -5, 16, 0},
		{"below cutoff", 8, 31, 16, 1},
		{"one grain exactly", 8, 16, 16, 1},
		{"just under two grains", 8, 2*16 - 1, 16, 1},
		{"two grains exactly", 8, 32, 16, 2},
		{"thread capped", 4, 1000, 1, 4},
		{"grain capped", 64, 100, 25, 4},
		{"single thread", 1, 1000, 1, 1},
		{"zero threads clamps to one", 0, 1000, 1, 1},
		{"zero grain treated as one", 4, 8, 0, 4},
		{"tiny nonempty range", 8, 1, 16, 1},
	}
	for _, tc := range cases {
		if got := Chunks(tc.threads, tc.n, tc.grain); got != tc.want {
			t.Errorf("%s: Chunks(%d, %d, %d) = %d, want %d",
				tc.name, tc.threads, tc.n, tc.grain, got, tc.want)
		}
	}
}

// TestChunkBoundsPartition verifies chunk bounds tile [0, n) exactly:
// disjoint, contiguous, in order — the property every kernel's
// determinism argument rests on.
func TestChunkBoundsPartition(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 101, 1023} {
		for chunks := 1; chunks <= 9 && chunks <= n; chunks++ {
			prev := 0
			for c := 0; c < chunks; c++ {
				lo, hi := chunkBounds(c, chunks, n)
				if lo != prev {
					t.Fatalf("n=%d chunks=%d: chunk %d starts at %d, want %d", n, chunks, c, lo, prev)
				}
				if hi <= lo {
					t.Fatalf("n=%d chunks=%d: chunk %d empty [%d,%d)", n, chunks, c, lo, hi)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d chunks=%d: coverage ends at %d", n, chunks, prev)
			}
		}
	}
}

// TestForCoversRangeOnce runs For at several thread budgets and checks
// every index is visited exactly once.
func TestForCoversRangeOnce(t *testing.T) {
	p := New(4)
	for _, threads := range []int{1, 2, 3, 8} {
		const n = 1000
		var hits [n]int32
		p.For(threads, n, 1, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("threads=%d: index %d visited %d times", threads, i, h)
			}
		}
	}
}

// TestForChunksDeterministicBounds: chunk c covers the same rows no
// matter where it ran — the bounds For hands out, in any order, must be
// exactly chunkBounds' for every chunk, each once.
func TestForChunksDeterministicBounds(t *testing.T) {
	p := New(3)
	const n, threads = 509, 4
	want := Chunks(threads, n, 1)
	var mu sync.Mutex
	ran := map[[2]int]int{}
	p.For(threads, n, 1, func(lo, hi int) {
		mu.Lock()
		ran[[2]int{lo, hi}]++
		mu.Unlock()
	})
	if len(ran) != want {
		t.Fatalf("For ran %d distinct chunks, want %d: %v", len(ran), want, ran)
	}
	for c := 0; c < want; c++ {
		lo, hi := chunkBounds(c, want, n)
		if k := ran[[2]int{lo, hi}]; k != 1 {
			t.Fatalf("chunk %d [%d,%d) ran %d times, want once: %v", c, lo, hi, k, ran)
		}
	}
}

// TestNestedForDoesNotDeadlock: a chunk that itself opens a parallel
// section must complete — submission never blocks, so the inner section
// runs inline when no worker is free.
func TestNestedForDoesNotDeadlock(t *testing.T) {
	p := New(2)
	var total atomic.Int64
	p.For(4, 64, 1, func(lo, hi int) {
		p.For(4, 64, 1, func(ilo, ihi int) {
			total.Add(int64(ihi - ilo))
		})
	})
	// Each of the outer chunks runs a full inner loop over 64 elements.
	outer := Chunks(4, 64, 1)
	if got := total.Load(); got != int64(64*outer) {
		t.Fatalf("nested For covered %d elements, want %d", got, 64*outer)
	}
}

// TestConcurrentFor hammers one pool from many goroutines; the race
// detector guards the pool's internals, the sums guard correctness.
func TestConcurrentFor(t *testing.T) {
	p := New(3)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sum atomic.Int64
			p.For(4, 500, 1, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum.Add(int64(i))
				}
			})
			if got := sum.Load(); got != 500*499/2 {
				t.Errorf("concurrent For sum = %d, want %d", got, 500*499/2)
			}
		}()
	}
	wg.Wait()
}

// TestNilAndZeroWorkerPools: a nil *Pool and a zero-worker pool both run
// everything inline on the caller.
func TestNilAndZeroWorkerPools(t *testing.T) {
	var nilPool *Pool
	if nilPool.Workers() != 0 {
		t.Fatal("nil pool reports workers")
	}
	count := 0
	nilPool.For(8, 10, 1, func(lo, hi int) { count += hi - lo })
	if count != 10 {
		t.Fatalf("nil pool For covered %d rows, want 10", count)
	}

	z := New(0)
	count = 0
	z.For(8, 10, 1, func(lo, hi int) { count += hi - lo }) // no atomics: must be inline
	if count != 10 {
		t.Fatalf("zero-worker pool For covered %d rows, want 10", count)
	}
	if New(-3).Workers() != 0 {
		t.Fatal("negative worker count not clamped to zero")
	}
}

// TestGrainFor pins the work→grain conversion at the cutoff.
func TestGrainFor(t *testing.T) {
	if g := GrainFor(1); g != MinParWork {
		t.Fatalf("GrainFor(1) = %d, want %d", g, MinParWork)
	}
	if g := GrainFor(MinParWork); g != 1 {
		t.Fatalf("GrainFor(MinParWork) = %d, want 1", g)
	}
	if g := GrainFor(MinParWork * 10); g != 1 {
		t.Fatalf("huge per-unit work must floor the grain at 1, got %d", g)
	}
	if g := GrainFor(0); g != MinParWork {
		t.Fatalf("GrainFor(0) = %d, want %d", g, MinParWork)
	}
}

// TestBudget pins the machine-division rule for concurrent executors.
func TestBudget(t *testing.T) {
	max := MaxThreads()
	if b := Budget(1); b != max {
		t.Fatalf("Budget(1) = %d, want GOMAXPROCS=%d", b, max)
	}
	if b := Budget(max); b != 1 {
		t.Fatalf("Budget(GOMAXPROCS) = %d, want 1", b)
	}
	if b := Budget(10 * max); b != 1 {
		t.Fatalf("oversharded budget must floor at 1, got %d", b)
	}
	if b := Budget(0); b != max {
		t.Fatalf("Budget(0) clamps to one executor, got %d want %d", b, max)
	}
}
