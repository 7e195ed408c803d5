package sparse

import (
	"math/rand"
	"testing"

	"matopt/internal/tensor"
)

// mulDenseRef and transposeMulDenseRef are the loops MulDenseK and
// TransposeMulDenseK ran before tensor.Axpy became their body, with the
// product rounded before the add (KERNELS.md §2, Rule 3).
func mulDenseRef(m *CSR, b *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			av := m.Val[k]
			for j, bv := range b.Data[m.ColIdx[k]*b.Cols : (m.ColIdx[k]+1)*b.Cols] {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

func transposeMulDenseRef(m *CSR, b *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(m.Cols, b.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			av := m.Val[k]
			orow := out.Data[m.ColIdx[k]*b.Cols : (m.ColIdx[k]+1)*b.Cols]
			for j, bv := range b.Data[i*b.Cols : (i+1)*b.Cols] {
				orow[j] += float64(av * bv)
			}
		}
	}
	return out
}

// TestCSRDenseProductsMatchScalarLoops: widths on both sides of the
// vector length and its unrolling, empty rows, and a fully dense CSR —
// every output bit equals the scalar loop's, at every thread budget.
func TestCSRDenseProductsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, width := range []int{1, 3, 4, 5, 15, 16, 17, 67, 130} {
		for _, density := range []float64{0.05, 0.4, 1} {
			a := FromDense(tensor.RandSparse(rng, 41, 53, density))
			b := tensor.RandNormal(rng, 53, width)
			want := mulDenseRef(a, b)
			for _, threads := range []int{1, 2, 8} {
				if got := a.MulDenseK(tensor.K{Threads: threads}, b); !bitsEqualDense(got, want) {
					t.Fatalf("width %d density %g threads %d: MulDenseK differs from the scalar loop", width, density, threads)
				}
			}
			bt := tensor.RandNormal(rng, 41, width)
			if got, want := a.TransposeMulDense(bt), transposeMulDenseRef(a, bt); !bitsEqualDense(got, want) {
				t.Fatalf("width %d density %g: TransposeMulDense differs from the scalar loop", width, density)
			}
		}
	}
}
