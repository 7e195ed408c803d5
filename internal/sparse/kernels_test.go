package sparse

import (
	"math/rand"
	"strings"
	"testing"

	"matopt/internal/tensor"
)

// TestMulDenseKBitIdenticalAcrossThreads: CSR×dense partitions output
// rows; every thread budget reproduces the serial bits, on the gather
// strip and, for an operand that stores every cell, on the GEMM tile.
func TestMulDenseKBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, c := range []struct {
		n, k, m int
		density float64
	}{{1, 1, 1, 0.2}, {37, 53, 29, 0.2}, {200, 150, 64, 0.2}, {200, 150, 64, 1}} {
		a := FromDense(tensor.RandSparse(rng, c.n, c.k, c.density))
		if full := a.NNZ() == a.Rows*a.Cols; full != (c.density == 1) {
			t.Fatalf("%+v: operand stores %d of %d cells", c, a.NNZ(), a.Rows*a.Cols)
		}
		b := tensor.RandNormal(rng, c.k, c.m)
		want := a.MulDenseK(tensor.K{}, b)
		for _, threads := range []int{2, 3, 8} {
			got := a.MulDenseK(tensor.K{Threads: threads}, b)
			if !tensor.BitEqual(got, want) {
				t.Fatalf("%+v threads=%d: MulDenseK differs from serial", c, threads)
			}
		}
	}
}

// TestSparseKernelTimers: the sparse kernel reports through the
// context's timer exactly once per product, on the gather strip and on
// the GEMM tile a full operand takes.
func TestSparseKernelTimers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := tensor.RandNormal(rng, 30, 30)
	for _, density := range []float64{0.3, 1} {
		a := FromDense(tensor.RandSparse(rng, 30, 30, density))
		var calls int
		kc := tensor.K{Threads: 2, Timer: func(int64) { calls++ }}
		a.MulDenseK(kc, d)
		if calls != 1 {
			t.Fatalf("density %g: timer saw %d kernels, want 1", density, calls)
		}
	}
}

// TestSparseShapeErrors: a mis-shaped sparse kernel panics with a typed
// *tensor.ShapeError values carrying the sparse.-prefixed kernel name.
func TestSparseShapeErrors(t *testing.T) {
	a := &CSR{Rows: 2, Cols: 3, RowPtr: []int{0, 0, 0}}
	d42 := tensor.NewDense(4, 2)
	cases := []struct {
		kernel string
		call   func()
	}{
		{"sparse.MulDense", func() { a.MulDenseK(tensor.K{}, d42) }},
	}
	for _, tc := range cases {
		t.Run(tc.kernel, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic from mis-shaped call")
				}
				se, ok := r.(*tensor.ShapeError)
				if !ok {
					t.Fatalf("panic value is %T, want *tensor.ShapeError", r)
				}
				if se.Kernel != tc.kernel {
					t.Fatalf("ShapeError.Kernel = %q, want %q", se.Kernel, tc.kernel)
				}
				if !strings.Contains(se.Error(), tc.kernel) {
					t.Fatalf("error string lacks kernel name: %q", se.Error())
				}
			}()
			tc.call()
		})
	}
}
