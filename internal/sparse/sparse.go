// Package sparse provides the sparse matrix substrates: COO (relational
// (rowIndex, colIndex, value) triples, the paper's "relational" storage)
// and CSR, with conversions and the sparse kernels the engine's
// sparse-aware implementations execute.
package sparse

import (
	"fmt"
	"sort"

	"matopt/internal/tensor"
)

// Triple is one COO entry.
type Triple struct {
	Row, Col int
	Val      float64
}

// COO is a coordinate-format sparse matrix. Triples are kept sorted by
// (Row, Col) and duplicate coordinates are coalesced by the constructors.
type COO struct {
	Rows, Cols int
	Triples    []Triple
}

// NewCOO builds a COO matrix from triples, sorting and coalescing
// duplicates (values at equal coordinates are summed) and dropping zeros.
func NewCOO(rows, cols int, ts []Triple) (*COO, error) {
	if rows <= 0 || cols <= 0 {
		return nil, fmt.Errorf("sparse: invalid dims %dx%d", rows, cols)
	}
	for _, t := range ts {
		if t.Row < 0 || t.Row >= rows || t.Col < 0 || t.Col >= cols {
			return nil, fmt.Errorf("sparse: triple (%d,%d) outside %dx%d", t.Row, t.Col, rows, cols)
		}
	}
	sorted := make([]Triple, len(ts))
	copy(sorted, ts)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Row != sorted[j].Row {
			return sorted[i].Row < sorted[j].Row
		}
		return sorted[i].Col < sorted[j].Col
	})
	out := sorted[:0]
	for _, t := range sorted {
		if n := len(out); n > 0 && out[n-1].Row == t.Row && out[n-1].Col == t.Col {
			out[n-1].Val += t.Val
			continue
		}
		out = append(out, t)
	}
	kept := out[:0]
	for _, t := range out {
		if t.Val != 0 {
			kept = append(kept, t)
		}
	}
	return &COO{Rows: rows, Cols: cols, Triples: kept}, nil
}

// NNZ returns the number of stored non-zeros.
func (m *COO) NNZ() int { return len(m.Triples) }

// Density returns the non-zero fraction (the paper's "sparsity"); an
// empty matrix has density 0.
func (m *COO) Density() float64 {
	if m.Rows == 0 || m.Cols == 0 {
		return 0
	}
	return float64(m.NNZ()) / (float64(m.Rows) * float64(m.Cols))
}

// Bytes returns the relational storage size: 2 int32 keys + 1 float64 per
// triple, matching the engine's tuple accounting for triple relations.
func (m *COO) Bytes() int64 { return int64(m.NNZ()) * 16 }

// ToDense materializes the matrix densely.
func (m *COO) ToDense() *tensor.Dense {
	d := tensor.NewDense(m.Rows, m.Cols)
	for _, t := range m.Triples {
		d.Data[t.Row*m.Cols+t.Col] = t.Val
	}
	return d
}

// FromDenseCOO extracts the non-zeros of d.
func FromDenseCOO(d *tensor.Dense) *COO {
	var ts []Triple
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); v != 0 {
				ts = append(ts, Triple{Row: i, Col: j, Val: v})
			}
		}
	}
	m, err := NewCOO(d.Rows, d.Cols, ts)
	if err != nil {
		panic(err) // dims come from a valid Dense
	}
	return m
}
