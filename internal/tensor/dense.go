// Package tensor provides the dense local linear-algebra kernels that the
// distributed engine executes inside each worker. Everything is float64
// and row-major; kernels are written cache-consciously (i-k-j loops,
// blocked multiply) but use only the standard library.
package tensor

import (
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols
}

// NewDense returns a zeroed r-by-c matrix.
func NewDense(r, c int) *Dense {
	checkDims(r, c)
	d, dirty := draw(r * c)
	if dirty {
		clear(d)
	}
	return &Dense{Rows: r, Cols: c, Data: d}
}

func checkDims(r, c int) {
	if r <= 0 || c <= 0 {
		panic(fmt.Sprintf("tensor: invalid dims %dx%d", r, c))
	}
}

// FromRows builds a matrix from row slices; all rows must share a length.
func FromRows(rows [][]float64) *Dense {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic("tensor: FromRows requires a non-empty ragged-free input")
	}
	m := NewDense(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic("tensor: FromRows ragged input")
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// At returns the (i, j) entry.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Dense) Clone() *Dense {
	out := Draw(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Bytes returns the payload size in bytes.
func (m *Dense) Bytes() int64 { return int64(len(m.Data)) * 8 }

// Slice returns a copy of the sub-matrix [r0, r1) × [c0, c1).
func (m *Dense) Slice(r0, r1, c0, c1 int) *Dense {
	if r0 < 0 || c0 < 0 || r1 > m.Rows || c1 > m.Cols || r0 >= r1 || c0 >= c1 {
		panic(fmt.Sprintf("tensor: bad slice [%d:%d, %d:%d) of %dx%d", r0, r1, c0, c1, m.Rows, m.Cols))
	}
	out := Draw(r1-r0, c1-c0)
	for i := r0; i < r1; i++ {
		copy(out.Data[(i-r0)*out.Cols:(i-r0+1)*out.Cols], m.Data[i*m.Cols+c0:i*m.Cols+c1])
	}
	return out
}

// SetSlice copies src into m starting at (r0, c0).
func (m *Dense) SetSlice(r0, c0 int, src *Dense) {
	if r0+src.Rows > m.Rows || c0+src.Cols > m.Cols || r0 < 0 || c0 < 0 {
		panic(fmt.Sprintf("tensor: SetSlice %dx%d at (%d,%d) overflows %dx%d", src.Rows, src.Cols, r0, c0, m.Rows, m.Cols))
	}
	for i := 0; i < src.Rows; i++ {
		copy(m.Data[(r0+i)*m.Cols+c0:(r0+i)*m.Cols+c0+src.Cols], src.Data[i*src.Cols:(i+1)*src.Cols])
	}
}

// MaxAbsDiff returns the largest entrywise absolute difference, or +Inf on
// a shape mismatch.
func MaxAbsDiff(a, b *Dense) float64 {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return math.Inf(1)
	}
	var d float64
	for i := range a.Data {
		if v := math.Abs(a.Data[i] - b.Data[i]); v > d {
			d = v
		}
	}
	return d
}

// BitEqual reports whether a and b have the same shape and the same
// math.Float64bits at every entry — the cross-engine identity every
// runtime must hold, which == cannot state (it equates ±0 and rejects
// NaN). A nil matrix equals nothing.
func BitEqual(a, b *Dense) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Float64bits(v) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// Density returns the fraction of non-zero entries; an empty matrix has
// density 0.
func (m *Dense) Density() float64 {
	if len(m.Data) == 0 {
		return 0
	}
	nnz := 0
	for _, v := range m.Data {
		if v != 0 {
			nnz++
		}
	}
	return float64(nnz) / float64(len(m.Data))
}

func (m *Dense) String() string { return fmt.Sprintf("Dense(%dx%d)", m.Rows, m.Cols) }
