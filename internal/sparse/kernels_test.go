package sparse

import (
	"math/rand"
	"strings"
	"testing"

	"matopt/internal/tensor"
)

// TestMulDenseKBitIdenticalAcrossThreads: CSR×dense partitions output
// rows; every thread budget reproduces the serial bits.
func TestMulDenseKBitIdenticalAcrossThreads(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, dim := range [][3]int{{1, 1, 1}, {37, 53, 29}, {200, 150, 64}} {
		a := FromDense(tensor.RandSparse(rng, dim[0], dim[1], 0.2))
		b := tensor.RandNormal(rng, dim[1], dim[2])
		want := a.MulDenseK(tensor.K{}, b)
		for _, threads := range []int{2, 3, 8} {
			got := a.MulDenseK(tensor.K{Threads: threads}, b)
			if !tensor.BitEqual(got, want) {
				t.Fatalf("%v threads=%d: MulDenseK differs from serial", dim, threads)
			}
		}
	}
}

// TestSparseKernelTimers: the sparse kernel reports through the
// context's timer.
func TestSparseKernelTimers(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := FromDense(tensor.RandSparse(rng, 30, 30, 0.3))
	d := tensor.RandNormal(rng, 30, 30)
	var calls int
	kc := tensor.K{Threads: 2, Timer: func(int64) { calls++ }}
	a.MulDenseK(kc, d)
	if calls != 1 {
		t.Fatalf("timer saw %d kernels, want 1", calls)
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
