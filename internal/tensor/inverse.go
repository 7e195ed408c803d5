package tensor

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned by Inverse for (numerically) singular inputs.
var ErrSingular = errors.New("tensor: matrix is singular")

// Inverse returns a⁻¹ by Gauss–Jordan elimination with partial pivoting.
func Inverse(a *Dense) (*Dense, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("tensor: Inverse of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	// Augmented [a | I], eliminated in place.
	w := a.Clone()
	defer Release(w)
	inv := Identity(n)
	for col := 0; col < n; col++ {
		// Partial pivot.
		p, best := col, math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				p, best = r, v
			}
		}
		if best < 1e-12 {
			return nil, ErrSingular
		}
		if p != col {
			swapRows(w, p, col)
			swapRows(inv, p, col)
		}
		piv := w.At(col, col)
		scaleRow(w, col, 1/piv)
		scaleRow(inv, col, 1/piv)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := w.At(r, col)
			if f == 0 {
				continue
			}
			axpyRow(w, r, col, -f)
			axpyRow(inv, r, col, -f)
		}
	}
	return inv, nil
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

func swapRows(m *Dense, a, b int) {
	ra := m.Data[a*m.Cols : (a+1)*m.Cols]
	rb := m.Data[b*m.Cols : (b+1)*m.Cols]
	for i := range ra {
		ra[i], rb[i] = rb[i], ra[i]
	}
}

func scaleRow(m *Dense, r int, s float64) {
	row := m.Data[r*m.Cols : (r+1)*m.Cols]
	for i := range row {
		row[i] *= s
	}
}

// axpyRow adds f times row src to row dst.
func axpyRow(m *Dense, dst, src int, f float64) {
	Axpy(f, m.Data[src*m.Cols:(src+1)*m.Cols], m.Data[dst*m.Cols:(dst+1)*m.Cols])
}
