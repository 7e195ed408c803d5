package sparse

import (
	"math"
	"math/rand"
	"testing"

	"matopt/internal/tensor"
)

// mulDenseRef is the loop MulDenseK ran before tensor.Axpy became its
// body, with each product fused into its add by math.FMA, one rounding
// (KERNELS.md §2, Rule 3).
func mulDenseRef(m *CSR, b *tensor.Dense) *tensor.Dense {
	out := tensor.NewDense(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		orow := out.Data[i*b.Cols : (i+1)*b.Cols]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			av := m.Val[k]
			for j, bv := range b.Data[m.ColIdx[k]*b.Cols : (m.ColIdx[k]+1)*b.Cols] {
				orow[j] = math.FMA(av, bv, orow[j])
			}
		}
	}
	return out
}

// TestMultiplyAddIsFused: MulDenseK rounds each multiply-add once on
// both of its paths — the GEMM tile for a CSR that stores every cell, the
// gather strip for one that does not. Row i of a is (−1, 1+2⁻²⁷), or
// (−1, 0, 1+2⁻²⁷) with the zero not stored, and the rows of b those
// entries read are 1 and 1−2⁻²⁷: every output element is fma(1+2⁻²⁷,
// 1−2⁻²⁷, −1) = −2⁻⁵⁴, where a product rounded before its add leaves
// +0. Thirteen rows and 167 columns cross the tile, half tile, remainder
// row and edge tile, and the 128-, 32-, 4- and 1-column strips.
func TestMultiplyAddIsFused(t *testing.T) {
	const rows, width, want = 13, 128 + 32 + 4 + 3, -0x1p-54
	for _, inner := range []int{2, 3} {
		d, b := tensor.NewDense(rows, inner), tensor.NewDense(inner, width)
		for i := 0; i < rows; i++ {
			d.Set(i, 0, -1)
			d.Set(i, inner-1, 1+0x1p-27)
		}
		for j := 0; j < width; j++ {
			b.Set(0, j, 1)
			b.Set(inner-1, j, 1-0x1p-27)
		}
		a := FromDense(d)
		full := a.NNZ() == rows*inner
		if full != (inner == 2) {
			t.Fatalf("inner %d: operand stores %d cells", inner, a.NNZ())
		}
		for i, v := range a.MulDenseK(tensor.K{Threads: 1}, b).Data {
			if math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("inner %d (every cell stored: %v): element %d = %g, want one rounding's %g", inner, full, i, v, want)
			}
		}
	}
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

// TestFullCSRMatchesScalarLoop: a CSR that stores every cell runs on the
// GEMM tile, and every output bit still equals the scalar loop's. Rows
// cover the 8×16 tile, the 4×16 half tile and the remainder rows Axpy
// takes; widths lie on both sides of the 16-column tile and the
// 128-column panel, inner dimensions on both sides of the 256-row panel.
// a stores ±0, NaN and ±∞, b holds NaN and ±∞: where the loop produces a
// NaN the kernel must too (which NaN is not part of the contract,
// KERNELS.md §2). Each product is also run into an output drawn dirty
// from the free list, where the output is long enough to be kept there.
func TestFullCSRMatchesScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	signed := []float64{0, math.Copysign(0, -1)}
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	dirtyDraws := 0
	for _, rows := range []int{1, 3, 4, 7, 8, 9, 41} {
		for _, inner := range []int{17, 300} {
			for _, width := range []int{1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 300} {
				a := FromDense(tensor.RandNormal(rng, rows, inner))
				if a.NNZ() != rows*inner {
					t.Fatalf("%dx%d: operand stores %d cells", rows, inner, a.NNZ())
				}
				for k := range a.Val {
					if rng.Intn(8) == 0 {
						a.Val[k] = signed[rng.Intn(len(signed))]
					}
				}
				b := tensor.RandNormal(rng, inner, width)
				for _, v := range special {
					a.Val[rng.Intn(len(a.Val))] = v
					b.Data[rng.Intn(len(b.Data))] = v
				}
				want := mulDenseRef(a, b)
				for _, threads := range []int{1, 2, 8} {
					for _, dirty := range []bool{false, true} {
						var junk []float64
						if dirty {
							junk = releaseJunk(rows, width)
						}
						got := a.MulDenseK(tensor.K{Threads: threads}, b)
						if junk != nil && &got.Data[0] == &junk[0] {
							dirtyDraws++
						}
						if i := firstBitDifference(got, want); i >= 0 {
							t.Fatalf("rows %d inner %d width %d threads %d dirty %v: element %d = %x, want %x",
								rows, inner, width, threads, dirty, i, math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
						}
					}
				}
			}
		}
	}
	if dirtyDraws == 0 {
		t.Fatal("no product was drawn dirty from the free list")
	}
}

// releaseJunk puts a NaN-filled r×c array on tensor's free list and
// returns it, so the next draw of that size may be handed it dirty.
func releaseJunk(r, c int) []float64 {
	d := make([]float64, r*c)
	for i := range d {
		d[i] = math.NaN()
	}
	tensor.Release(&tensor.Dense{Rows: r, Cols: c, Data: d})
	return d
}

// firstBitDifference returns the first element where got and want differ
// in bits, a NaN in both counting as equal, or −1.
func firstBitDifference(got, want *tensor.Dense) int {
	for i, w := range want.Data {
		if g := got.Data[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			return i
		}
	}
	return -1
}
