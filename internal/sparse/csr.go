package sparse

import (
	"fmt"

	"matopt/internal/tensor"
)

// CSR is a compressed-sparse-row matrix: RowPtr has Rows+1 entries, and
// ColIdx/Val hold the column indices and values of each row's non-zeros
// in ascending column order.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64
}

// NewCSR validates and wraps raw CSR arrays.
func NewCSR(rows, cols int, rowPtr, colIdx []int, val []float64) (*CSR, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: invalid dims %dx%d", rows, cols)
	}
	if len(rowPtr) != rows+1 {
		return nil, fmt.Errorf("sparse: RowPtr length %d, want %d", len(rowPtr), rows+1)
	}
	if len(colIdx) != len(val) || rowPtr[rows] != len(val) {
		return nil, fmt.Errorf("sparse: inconsistent CSR arrays")
	}
	if rowPtr[0] != 0 {
		return nil, fmt.Errorf("sparse: RowPtr[0] must be 0")
	}
	for i := 0; i < rows; i++ {
		if rowPtr[i] > rowPtr[i+1] {
			return nil, fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
	}
	for i := 0; i < rows; i++ {
		for k := rowPtr[i]; k < rowPtr[i+1]; k++ {
			if colIdx[k] < 0 || colIdx[k] >= cols {
				return nil, fmt.Errorf("sparse: column %d outside %d cols", colIdx[k], cols)
			}
			if k > rowPtr[i] && colIdx[k] <= colIdx[k-1] {
				return nil, fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
		}
	}
	return &CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}, nil
}

// NNZ returns the number of stored non-zeros.
func (m *CSR) NNZ() int { return len(m.Val) }

// Bytes returns the CSR storage size: 8 bytes per row pointer, 4 per
// column index, 8 per value — the sizes the cost model charges.
func (m *CSR) Bytes() int64 { return int64(len(m.RowPtr))*8 + int64(m.NNZ())*12 }

// FromDense extracts the non-zeros of d into CSR form: a cell is stored
// iff it compares unequal to zero (so −0 is dropped and NaN kept), the
// cells FromDenseCOO(d) lists, in the same order. One pass counts each
// row's non-zeros, a second fills arrays of exactly that size, drawn
// from the tensor free lists (Release gives them back).
func FromDense(d *tensor.Dense) *CSR {
	rowPtr := tensor.DrawInts(d.Rows + 1)
	rowPtr[0] = 0
	for i := 0; i < d.Rows; i++ {
		n := 0
		for _, v := range d.Data[i*d.Cols : (i+1)*d.Cols] {
			if v != 0 {
				n++
			}
		}
		rowPtr[i+1] = rowPtr[i] + n
	}
	colIdx := tensor.DrawInts(rowPtr[d.Rows])
	val := tensor.DrawFloats(rowPtr[d.Rows])
	k := 0
	for i := 0; i < d.Rows; i++ {
		for j, v := range d.Data[i*d.Cols : (i+1)*d.Cols] {
			if v != 0 {
				colIdx[k], val[k] = j, v
				k++
			}
		}
	}
	return &CSR{Rows: d.Rows, Cols: d.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// Release returns m's arrays to the tensor free lists and clears them,
// so that a later use of m panics instead of reading reused storage. The
// caller holds the only reference to them.
func Release(m *CSR) {
	tensor.ReleaseInts(m.RowPtr)
	tensor.ReleaseInts(m.ColIdx)
	tensor.ReleaseFloats(m.Val)
	m.RowPtr, m.ColIdx, m.Val = nil, nil, nil
}

// ToDense materializes the matrix densely.
func (m *CSR) ToDense() *tensor.Dense {
	d := tensor.NewDense(m.Rows, m.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			d.Data[i*m.Cols+m.ColIdx[k]] = m.Val[k]
		}
	}
	return d
}

// RowSlice returns the CSR sub-matrix of rows [r0, r1) in arrays of its
// own, drawn from the tensor free lists, so that each slice can be
// released apart from m.
func (m *CSR) RowSlice(r0, r1 int) *CSR {
	if r0 < 0 || r1 > m.Rows || r0 >= r1 {
		panic(fmt.Sprintf("sparse: bad row slice [%d:%d) of %d rows", r0, r1, m.Rows))
	}
	base := m.RowPtr[r0]
	rowPtr := tensor.DrawInts(r1 - r0 + 1)
	for i := range rowPtr {
		rowPtr[i] = m.RowPtr[r0+i] - base
	}
	colIdx, val := tensor.DrawInts(rowPtr[r1-r0]), tensor.DrawFloats(rowPtr[r1-r0])
	copy(colIdx, m.ColIdx[base:m.RowPtr[r1]])
	copy(val, m.Val[base:m.RowPtr[r1]])
	return &CSR{Rows: r1 - r0, Cols: m.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}
