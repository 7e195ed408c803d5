package tensor

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"matopt/internal/pool"
)

// gemmShapes crosses every blocking boundary: the 4-row micro-kernel
// remainder (rows ≢ 0 mod 4), the kc=256 panel edge, the nc=128 panel
// edge, and tiny shapes that stay under the serial cutoff.
var gemmShapes = []struct{ m, k, n int }{
	{1, 1, 1},
	{3, 5, 2},
	{4, 7, 9},
	{17, 23, 31},
	{64, 64, 64},
	{65, 256, 128},
	{70, 257, 129},
	{130, 300, 270},
}

// TestMatMulMatchesNaiveBitExact: the cache-blocked GEMM reproduces the
// naive ascending-k accumulation bit for bit at every shape and thread
// count — this is the determinism contract KERNELS.md documents.
func TestMatMulMatchesNaiveBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, s := range gemmShapes {
		a := RandNormal(rng, s.m, s.k)
		b := RandNormal(rng, s.k, s.n)
		want := naiveMatMul(a, b)
		for _, threads := range []int{1, 2, 3, 8} {
			got := K{Threads: threads}.MatMul(a, b)
			if !BitEqual(got, want) {
				t.Fatalf("%dx%dx%d threads=%d: blocked GEMM differs from naive (max |Δ| %g)",
					s.m, s.k, s.n, threads, MaxAbsDiff(got, want))
			}
		}
	}
}

// TestMatMulAddAccumulates: gemm without zero computes dst += a×b, the
// mode MatMul takes on zeroed storage; into a non-zero destination it
// adds identically at every thread count.
func TestMatMulAddAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := RandNormal(rng, 33, 47)
	b := RandNormal(rng, 47, 29)
	base := RandNormal(rng, 33, 29)
	want := base.Clone()
	K{}.gemm(want, a, b, false)
	for _, threads := range []int{2, 8} {
		got := base.Clone()
		K{Threads: threads}.gemm(got, a, b, false)
		if !BitEqual(got, want) {
			t.Fatalf("threads=%d: dst += a×b differs from serial", threads)
		}
	}
}

// TestGEMMSignedZeros: rows of ±0 exercise the no-zero-skip rule — a
// skipped `+= 0·b` is not a no-op for signed zeros, so the kernel must
// multiply through. -0·x + 0 and 0·x + -0 land on different bit
// patterns than a skip would produce.
func TestGEMMSignedZeros(t *testing.T) {
	negZero := math.Copysign(0, -1)
	a := NewDense(6, 5)
	b := NewDense(5, 4)
	for i := range a.Data {
		if i%2 == 0 {
			a.Data[i] = negZero
		}
	}
	for i := range b.Data {
		switch i % 3 {
		case 0:
			b.Data[i] = negZero
		case 1:
			b.Data[i] = float64(i)
		}
	}
	want := naiveMatMul(a, b)
	for _, threads := range []int{1, 2, 4} {
		got := K{Threads: threads}.MatMul(a, b)
		if !BitEqual(got, want) {
			t.Fatalf("threads=%d: signed-zero GEMM differs from naive", threads)
		}
	}
}

// TestKernelsBitIdenticalAcrossThreads sweeps every parallelized dense
// kernel: serial K{} and threaded contexts must agree bit for bit.
func TestKernelsBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 63, 41)
	b := RandNormal(rng, 63, 41)
	bias := RandNormal(rng, 1, 41)
	kernels := []struct {
		name string
		run  func(k K) *Dense
	}{
		{"Add", func(k K) *Dense { return k.Add(a, b) }},
		{"Sub", func(k K) *Dense { return k.Sub(a, b) }},
		{"Hadamard", func(k K) *Dense { return k.Hadamard(a, b) }},
		{"AddInPlace", func(k K) *Dense { c := a.Clone(); k.AddInPlace(c, b); return c }},
		{"Transpose", func(k K) *Dense { return k.Transpose(a) }},
		{"Scale", func(k K) *Dense { return k.Scale(a, -1.75) }},
		{"RowSums", func(k K) *Dense { return k.RowSums(a) }},
		{"ColSums", func(k K) *Dense { return k.ColSums(a) }},
		{"AddBias", func(k K) *Dense { return k.AddBias(a, bias) }},
		{"ReLU", func(k K) *Dense { return k.ReLU(a) }},
		{"ReLUGrad", func(k K) *Dense { return k.ReLUGrad(a) }},
		{"Sigmoid", func(k K) *Dense { return k.Sigmoid(a) }},
		{"Exp", func(k K) *Dense { return k.Exp(a) }},
		{"Neg", func(k K) *Dense { return k.Neg(a) }},
		{"Softmax", func(k K) *Dense { return k.Softmax(a) }},
	}
	for _, kr := range kernels {
		t.Run(kr.name, func(t *testing.T) {
			want := kr.run(K{})
			for _, threads := range []int{2, 3, 8} {
				if got := kr.run(K{Threads: threads}); !BitEqual(got, want) {
					t.Fatalf("threads=%d differs from serial", threads)
				}
			}
			// Package-level wrappers are the serial context.
			if got := kr.run(Auto()); !BitEqual(got, want) {
				t.Fatal("Auto() differs from serial")
			}
		})
	}
}

// TestShapeErrors: every mis-shaped call panics with a typed
// *ShapeError naming the kernel and both operands.
func TestShapeErrors(t *testing.T) {
	m23 := NewDense(2, 3)
	m24 := NewDense(2, 4)
	m32 := NewDense(3, 2)
	cases := []struct {
		kernel string
		call   func()
	}{
		{"tensor.MatMul", func() { MatMul(m23, m23) }},
		{"tensor.Add", func() { K{}.Add(m23, m24) }},
		{"tensor.Sub", func() { K{}.Sub(m23, m32) }},
		{"tensor.Hadamard", func() { K{}.Hadamard(m23, m24) }},
		{"tensor.AddInPlace", func() { K{}.AddInPlace(m23, m24) }},
		{"tensor.AddBias", func() { K{}.AddBias(m23, NewDense(1, 4)) }},
		{"tensor.AddBias", func() { K{}.AddBias(m23, NewDense(2, 3)) }},
	}
	for _, tc := range cases {
		t.Run(tc.kernel, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic from mis-shaped call")
				}
				se, ok := r.(*ShapeError)
				if !ok {
					t.Fatalf("panic value is %T, want *ShapeError", r)
				}
				if se.Kernel != tc.kernel {
					t.Fatalf("ShapeError.Kernel = %q, want %q", se.Kernel, tc.kernel)
				}
				if len(se.Dims) == 0 || !strings.Contains(se.Error(), tc.kernel) {
					t.Fatalf("ShapeError lacks dims or kernel name: %v", se)
				}
			}()
			tc.call()
		})
	}
}

// TestCutoffBoundary pins where kernels go parallel: Par keeps one chunk
// below 2·MinParWork total work and forks above it (given threads).
func TestCutoffBoundary(t *testing.T) {
	chunks := func(k K, n, workPerUnit int) int { return pool.Chunks(k.threads(), n, grainFor(workPerUnit)) }
	k := K{Threads: 4}
	// workPerUnit = MinParWork ⇒ grain 1 ⇒ chunk per row up to threads.
	if c := chunks(k, 10, pool.MinParWork); c != 4 {
		t.Fatalf("heavy rows: chunks = %d, want 4", c)
	}
	// workPerUnit 1 ⇒ grain MinParWork: below 2 grains stays serial.
	if c := chunks(k, 2*pool.MinParWork-1, 1); c != 1 {
		t.Fatalf("just under cutoff: chunks = %d, want 1", c)
	}
	if c := chunks(k, 2*pool.MinParWork, 1); c != 2 {
		t.Fatalf("at cutoff: chunks = %d, want 2", c)
	}
	// The zero context is always serial.
	if c := chunks(K{}, 1<<20, pool.MinParWork); c != 1 {
		t.Fatalf("serial context forked into %d chunks", c)
	}
}

// TestKernelTimer: an attached Timer sees every kernel invocation.
func TestKernelTimer(t *testing.T) {
	var calls int
	var total int64
	k := K{Threads: 2, Timer: func(ns int64) { calls++; total += ns }}
	rng := rand.New(rand.NewSource(5))
	a := RandNormal(rng, 40, 40)
	k.MatMul(a, a)
	k.Add(a, a)
	k.Softmax(a)
	if calls != 3 {
		t.Fatalf("timer saw %d kernels, want 3", calls)
	}
	if total < 0 {
		t.Fatalf("negative kernel time %d", total)
	}
}
