package sparse

import (
	"math"
	"math/rand"
	"testing"

	"matopt/internal/tensor"
)

// mulDenseRef is the loop MulDenseK ran before tensor.Axpy became its
// body, with the product rounded before the add (KERNELS.md §2, Rule 3).
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

// TestCSRDenseProductsMatchScalarLoops: widths on both sides of the
// vector length, the 32- and 128-column strips and the column block (256
// columns for a dense operand, 192 or 128 at density 0.4, the whole width
// for a sparse one), inner dimensions on both sides of the smallest b-row block,
// operands from nearly empty to fully dense, empty rows and explicitly
// stored zeros of both signs — every output bit equals the scalar
// loop's, at every thread budget.
func TestCSRDenseProductsMatchScalarLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, width := range []int{1, 3, 4, 5, 15, 16, 17, 31, 32, 33, 36, 67, 127, 128, 129, 130, 191, 192, 193, 255, 256, 257, 300, 1250} {
		for _, inner := range []int{15, 16, 17, 53, 300} {
			for _, density := range []float64{0.002, 0.05, 0.4, 1} {
				d := tensor.RandSparse(rng, 41, inner, density)
				for _, empty := range []int{0, 20} {
					for j := 0; j < inner; j++ {
						d.Set(empty, j, 0)
					}
				}
				a := FromDense(d)
				for k := range a.Val {
					switch rng.Intn(8) {
					case 0:
						a.Val[k] = 0
					case 1:
						a.Val[k] = math.Copysign(0, -1)
					}
				}
				a, err := NewCSR(a.Rows, a.Cols, a.RowPtr, a.ColIdx, a.Val)
				if err != nil {
					t.Fatal(err)
				}
				b := tensor.RandNormal(rng, inner, width)
				want := mulDenseRef(a, b)
				for _, threads := range []int{1, 2, 8} {
					if got := a.MulDenseK(tensor.K{Threads: threads}, b); !tensor.BitEqual(got, want) {
						t.Fatalf("width %d inner %d density %g threads %d: MulDenseK differs from the scalar loop",
							width, inner, density, threads)
					}
				}
			}
		}
	}
}
