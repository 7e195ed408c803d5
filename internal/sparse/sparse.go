// Package sparse provides the sparse matrix substrates: COO (relational
// (rowIndex, colIndex, value) triples, the paper's "relational" storage)
// and CSR, with conversions and the sparse kernels the engine's
// sparse-aware implementations execute.
package sparse

import "matopt/internal/tensor"

// Triple is one COO entry.
type Triple struct {
	Row, Col int
	Val      float64
}

// FromDenseCOO extracts the non-zeros of d as triples in row-major order,
// so they are sorted by (Row, Col) and no coordinate repeats. A cell is
// kept iff it compares unequal to zero: −0 is dropped and NaN kept.
func FromDenseCOO(d *tensor.Dense) []Triple {
	var ts []Triple
	for i := 0; i < d.Rows; i++ {
		for j := 0; j < d.Cols; j++ {
			if v := d.At(i, j); v != 0 {
				ts = append(ts, Triple{Row: i, Col: j, Val: v})
			}
		}
	}
	return ts
}
