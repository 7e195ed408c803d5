package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// fullRowInverse is Gauss–Jordan as Inverse computed it before it
// restricted the working copy to its live columns: every row update and
// the pivot row's scaling run over whole rows of both halves. It reports
// how many rows it swapped and how many pivots were negative, so a test
// can tell that its inputs pivot.
func fullRowInverse(a *Dense) (inv *Dense, swaps, negative int) {
	n := a.Rows
	w := a.Clone()
	inv = Identity(n)
	for col := 0; col < n; col++ {
		p, best := col, math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, swaps, negative
		}
		if p != col {
			swapRows(w, p, col)
			swapRows(inv, p, col)
			swaps++
		}
		piv := w.At(col, col)
		if piv < 0 {
			negative++
		}
		scale(w.Data[col*n:(col+1)*n], 1/piv)
		scale(inv.Data[col*n:(col+1)*n], 1/piv)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := w.At(r, col)
			if f == 0 {
				continue
			}
			Axpy(-f, w.Data[col*n:(col+1)*n], w.Data[r*n:(r+1)*n])
			Axpy(-f, inv.Data[col*n:(col+1)*n], inv.Data[r*n:(r+1)*n])
		}
	}
	return inv, swaps, negative
}

// TestInverseMatchesFullRowElimination holds Inverse bit for bit to the
// full-row elimination on inputs that pivot: a Normal(0, 1) matrix,
// whose pivots are often negative, and a cyclic permutation matrix with
// alternating signs, whose every step swaps rows. At every size but 1
// the two swap rows and meet a negative pivot.
func TestInverseMatchesFullRowElimination(t *testing.T) {
	eachBinding(t, func(t *testing.T, _ binding) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{1, 2, 7, 33, 64, 130} {
			perm := NewDense(n, n)
			for i := 0; i < n; i++ {
				perm.Set(i, (i+1)%n, float64(1-2*(i%2)))
			}
			swaps, negative := 0, 0
			for name, a := range map[string]*Dense{"normal": RandNormal(rng, n, n), "permutation": perm} {
				want, s, neg := fullRowInverse(a)
				if want == nil {
					t.Fatalf("n=%d %s: the reference found the input singular", n, name)
				}
				swaps, negative = swaps+s, negative+neg
				got, err := Inverse(a)
				if err != nil {
					t.Fatalf("n=%d %s: %v", n, name, err)
				}
				for i, v := range got.Data {
					if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
						t.Fatalf("n=%d %s: entry (%d, %d) is %v, the full-row elimination gives %v", n, name, i/n, i%n, v, want.Data[i])
					}
				}
			}
			if n > 1 && (swaps == 0 || negative == 0) {
				t.Fatalf("n=%d: %d row swaps and %d negative pivots; the inputs must do both", n, swaps, negative)
			}
		}
	})
}
