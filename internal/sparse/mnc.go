package sparse

import (
	"fmt"
	"math"

	"matopt/internal/tensor"
)

// Sketch is a simplified MNC (Matrix Non-zero Count) sketch in the
// spirit of Sommer et al. (SIGMOD 2019), which §7 of the paper proposes
// for estimating intermediate sparsity: the per-row and per-column
// non-zero counts of a matrix. The paper leaves integrating such a
// framework to future work; this implementation provides the structure-
// exploiting estimator and the adaptive executor in internal/engine uses
// it to detect when the simple independence-based estimates drift.
type Sketch struct {
	Rows, Cols int
	RowCounts  []int64 // non-zeros per row
	ColCounts  []int64 // non-zeros per column
}

// NNZ returns the total non-zero count.
func (s *Sketch) NNZ() int64 {
	var n int64
	for _, c := range s.RowCounts {
		n += c
	}
	return n
}

// Density returns the non-zero fraction.
func (s *Sketch) Density() float64 {
	return float64(s.NNZ()) / (float64(s.Rows) * float64(s.Cols))
}

// SketchDense extracts the sketch of a dense matrix.
func SketchDense(m *tensor.Dense) *Sketch {
	s := &Sketch{
		Rows:      m.Rows,
		Cols:      m.Cols,
		RowCounts: make([]int64, m.Rows),
		ColCounts: make([]int64, m.Cols),
	}
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			if m.At(i, j) != 0 {
				s.RowCounts[i]++
				s.ColCounts[j]++
			}
		}
	}
	return s
}

// SketchCSR extracts the sketch of a CSR matrix.
func SketchCSR(m *CSR) *Sketch {
	s := &Sketch{
		Rows:      m.Rows,
		Cols:      m.Cols,
		RowCounts: make([]int64, m.Rows),
		ColCounts: make([]int64, m.Cols),
	}
	for i := 0; i < m.Rows; i++ {
		s.RowCounts[i] = int64(m.RowPtr[i+1] - m.RowPtr[i])
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			s.ColCounts[m.ColIdx[k]]++
		}
	}
	return s
}

// UniformSketch builds the sketch of a hypothetical matrix with the
// given density spread uniformly (used for matrices known only by their
// summary density).
func UniformSketch(rows, cols int, density float64) *Sketch {
	s := &Sketch{Rows: rows, Cols: cols,
		RowCounts: make([]int64, rows), ColCounts: make([]int64, cols)}
	perRow := int64(math.Round(density * float64(cols)))
	perCol := int64(math.Round(density * float64(rows)))
	for i := range s.RowCounts {
		s.RowCounts[i] = perRow
	}
	for j := range s.ColCounts {
		s.ColCounts[j] = perCol
	}
	return s
}

// EstimateMatMul estimates the sketch of a×b from the operand sketches.
// For each inner index k, the expected number of (i, j) pairs receiving
// a contribution is ColCounts_a[k]·RowCounts_b[k]; collisions between
// contributions are corrected with the standard Poisson approximation
// nnz ≈ m·n·(1 − e^{−λ}) with λ the expected contributions per output
// cell. Row and column counts of the product are estimated by
// distributing the output non-zeros proportionally to each row's
// (column's) expected contribution mass — the structure-exploiting step
// that plain density products miss.
func EstimateMatMul(a, b *Sketch) (*Sketch, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("sparse: sketch matmul %dx%d × %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	m, n := a.Rows, b.Cols
	out := &Sketch{Rows: m, Cols: n,
		RowCounts: make([]int64, m), ColCounts: make([]int64, n)}

	// Total expected contributions Σ_k ca[k]·rb[k].
	var total float64
	// Per-row mass: row i of a contributes RowCounts_a[i] terms, each
	// hitting an expected rb[k]/… — without per-entry positions, spread
	// row i's non-zeros over the inner index proportionally to b's row
	// counts: mass_i = RowCounts_a[i] · (Σ_k rb[k]) / K̄ … simplified to
	// mass_i ∝ RowCounts_a[i] · avgRB.
	//
	// Here and below float64(x * y) rounds a product before it is added,
	// so the estimate is the same number on every architecture
	// (KERNELS.md §2, Rule 3).
	var sumRB, sumCA float64
	for k := 0; k < a.Cols; k++ {
		total += float64(float64(a.ColCounts[k]) * float64(b.RowCounts[k]))
		sumRB += float64(b.RowCounts[k])
		sumCA += float64(a.ColCounts[k])
	}
	if total == 0 {
		return out, nil
	}
	cells := float64(m) * float64(n)
	lambda := total / cells
	nnz := cells * (1 - math.Exp(-lambda))

	avgRB := sumRB / float64(a.Cols)
	avgCA := sumCA / float64(b.Rows)
	var rowMassTotal, colMassTotal float64
	rowMass := make([]float64, m)
	colMass := make([]float64, n)
	for i := 0; i < m; i++ {
		rowMass[i] = float64(float64(a.RowCounts[i]) * avgRB)
		rowMassTotal += rowMass[i]
	}
	for j := 0; j < n; j++ {
		colMass[j] = float64(float64(b.ColCounts[j]) * avgCA)
		colMassTotal += colMass[j]
	}
	for i := 0; i < m; i++ {
		if rowMassTotal > 0 {
			// Saturate at a full row.
			c := nnz * rowMass[i] / rowMassTotal
			if c > float64(n) {
				c = float64(n)
			}
			out.RowCounts[i] = int64(math.Round(c))
		}
	}
	for j := 0; j < n; j++ {
		if colMassTotal > 0 {
			c := nnz * colMass[j] / colMassTotal
			if c > float64(m) {
				c = float64(m)
			}
			out.ColCounts[j] = int64(math.Round(c))
		}
	}
	return out, nil
}

// EstimateAdd estimates the sketch of a+b (union of supports with
// independence-corrected overlap).
func EstimateAdd(a, b *Sketch) (*Sketch, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("sparse: sketch add %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &Sketch{Rows: a.Rows, Cols: a.Cols,
		RowCounts: make([]int64, a.Rows), ColCounts: make([]int64, a.Cols)}
	for i := range out.RowCounts {
		pa := float64(a.RowCounts[i]) / float64(a.Cols)
		pb := float64(b.RowCounts[i]) / float64(b.Cols)
		out.RowCounts[i] = int64(math.Round(float64(a.Cols) * (pa + pb - float64(pa*pb))))
	}
	for j := range out.ColCounts {
		pa := float64(a.ColCounts[j]) / float64(a.Rows)
		pb := float64(b.ColCounts[j]) / float64(b.Rows)
		out.ColCounts[j] = int64(math.Round(float64(a.Rows) * (pa + pb - float64(pa*pb))))
	}
	return out, nil
}

// EstimateHadamard estimates the sketch of a∘b (intersection of
// supports under independence).
func EstimateHadamard(a, b *Sketch) (*Sketch, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return nil, fmt.Errorf("sparse: sketch hadamard %dx%d vs %dx%d", a.Rows, a.Cols, b.Rows, b.Cols)
	}
	out := &Sketch{Rows: a.Rows, Cols: a.Cols,
		RowCounts: make([]int64, a.Rows), ColCounts: make([]int64, a.Cols)}
	for i := range out.RowCounts {
		out.RowCounts[i] = int64(math.Round(float64(a.RowCounts[i]) * float64(b.RowCounts[i]) / float64(a.Cols)))
	}
	for j := range out.ColCounts {
		out.ColCounts[j] = int64(math.Round(float64(a.ColCounts[j]) * float64(b.ColCounts[j]) / float64(a.Rows)))
	}
	return out, nil
}

// Transpose returns the transposed sketch.
func (s *Sketch) Transpose() *Sketch {
	return &Sketch{
		Rows:      s.Cols,
		Cols:      s.Rows,
		RowCounts: append([]int64(nil), s.ColCounts...),
		ColCounts: append([]int64(nil), s.RowCounts...),
	}
}

// RelativeError is Sommer's accuracy measure used in §7 of the paper:
// max(est, actual)/min(est, actual), with 1.0 meaning a perfect
// estimate. Zero-vs-nonzero disagreements return +Inf.
func RelativeError(estimated, actual float64) float64 {
	if estimated == actual {
		return 1
	}
	if estimated <= 0 || actual <= 0 {
		return math.Inf(1)
	}
	return math.Max(estimated, actual) / math.Min(estimated, actual)
}
