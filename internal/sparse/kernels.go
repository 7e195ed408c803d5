package sparse

import (
	"time"

	"matopt/internal/tensor"
)

// shapePanic panics with a typed *tensor.ShapeError for a sparse kernel.
func shapePanic(kernel, want string, dims ...string) {
	panic(&tensor.ShapeError{Kernel: "sparse." + kernel, Want: want, Dims: dims})
}

// kernDone reports a kernel's wall time to the context's timer, if one
// is attached. Use as `defer kernDone(kc, time.Now())`.
func kernDone(kc tensor.K, t0 time.Time) {
	if kc.Timer != nil {
		kc.Timer(time.Since(t0).Nanoseconds())
	}
}

// avgRowWork estimates the scalar operations one CSR row contributes to
// a product with width output columns — the pool grain is sized from it
// so sparse kernels keep the same serial-size cutoff as the dense ones.
func (m *CSR) avgRowWork(width int) int {
	if m.Rows == 0 {
		return 1
	}
	return 2 * (m.NNZ()/m.Rows + 1) * width
}

// MulDense returns the dense product a×b for CSR a and dense b,
// serially. The output of a sparse-data × dense-model multiply is dense
// (§7 of the paper), so the result is materialized densely.
func (m *CSR) MulDense(b *tensor.Dense) *tensor.Dense { return m.MulDenseK(tensor.K{}, b) }

// MulDenseK is MulDense under a kernel context: output rows are
// partitioned into contiguous chunks (a CSR row is owned by exactly one
// chunk, and its accumulation order over stored entries is unchanged),
// so any thread count is bit-identical to serial.
//
// A chunk sweeps column blocks × b-row blocks × its rows, so that the
// kb×cb tile of b its rows gather from stays in cache while
// tensor.GatherAxpy holds each strip of an output row (tensor.GatherStrip
// columns: 32 or 128, as the bound body has registers for) in registers
// across the row's entries in the block. Both block sizes come from the
// operands: kb makes a (row, block) visit carry at least about eight
// stored entries, cb keeps the tile at 32 KiB in whole strips. Column indices
// ascend within a row, so a block's entries are a contiguous run that a
// per-row cursor walks once per column block, and every output element
// still adds its rounded products in ascending stored-entry order. The
// output may come dirty off the free list (tensor.DrawAccumulator): a
// chunk then clears its rows' share of a column block right before it
// accumulates into it.
func (m *CSR) MulDenseK(kc tensor.K, b *tensor.Dense) *tensor.Dense {
	if m.Cols != b.Rows {
		shapePanic("MulDense", "inner dimensions must agree (a.Cols == b.Rows)",
			tensor.Dim("a", m.Rows, m.Cols), tensor.Dim("b", b.Rows, b.Cols))
	}
	defer kernDone(kc, time.Now())
	if m.NNZ() == 0 {
		return tensor.NewDense(m.Rows, b.Cols)
	}
	out, dirty := tensor.DrawAccumulator(m.Rows, b.Cols)
	w := b.Cols
	strip := tensor.GatherStrip()
	kb := max(16, (8*m.Rows*m.Cols+m.NNZ()-1)/m.NNZ())
	cb := min(w, max(strip, 4096/kb/strip*strip))
	kb = max(kb, 4096/cb) // a b narrower than cb leaves room for more of its rows
	kc.Par(m.Rows, m.avgRowWork(w), func(lo, hi int) {
		cur := make([]int, hi-lo) // per row: its first entry not yet multiplied in this column block
		for j0 := 0; j0 < w; j0 += cb {
			j1 := min(j0+cb, w)
			for i := lo; dirty && i < hi; i++ {
				clear(out.Data[i*w+j0 : i*w+j1])
			}
			copy(cur, m.RowPtr[lo:hi])
			for k1 := kb; k1 < m.Cols+kb; k1 += kb {
				for i := lo; i < hi; i++ {
					p, end := cur[i-lo], m.RowPtr[i+1]
					q := end
					if k1 < m.Cols {
						for q = p; q < end && m.ColIdx[q] < k1; q++ {
						}
					}
					if q > p {
						tensor.GatherAxpy(m.Val[p:q], m.ColIdx[p:q], b.Data[j0:], w, out.Data[i*w+j0:i*w+j1])
						cur[i-lo] = q
					}
				}
			}
		}
	})
	return out
}

// TransposeMulDense returns aᵀ×b for CSR a and dense b, without
// materializing aᵀ — the access pattern scatter-adds each sparse row.
func (m *CSR) TransposeMulDense(b *tensor.Dense) *tensor.Dense {
	return m.TransposeMulDenseK(tensor.K{}, b)
}

// TransposeMulDenseK is TransposeMulDense under a kernel context. It
// runs serially regardless of the thread budget: the kernel
// scatter-adds into output rows indexed by ColIdx, so output ownership
// follows the (unpredictable) sparsity pattern rather than a row range
// — there is no partition that is both disjoint and
// accumulation-order-preserving. Only the context's timer is honored.
func (m *CSR) TransposeMulDenseK(kc tensor.K, b *tensor.Dense) *tensor.Dense {
	if m.Rows != b.Rows {
		shapePanic("TransposeMulDense", "row counts must agree (aᵀ×b needs a.Rows == b.Rows)",
			tensor.Dim("a", m.Rows, m.Cols), tensor.Dim("b", b.Rows, b.Cols))
	}
	defer kernDone(kc, time.Now())
	out := tensor.NewDense(m.Cols, b.Cols)
	for i := 0; i < m.Rows; i++ {
		brow := b.Data[i*b.Cols : (i+1)*b.Cols]
		for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
			tensor.Axpy(m.Val[k], brow, out.Data[m.ColIdx[k]*b.Cols:(m.ColIdx[k]+1)*b.Cols])
		}
	}
	return out
}

// Mul returns the sparse product a×b for two CSR matrices, serially,
// using the classical Gustavson row-merge algorithm.
func (m *CSR) Mul(b *CSR) *CSR { return m.MulK(tensor.K{}, b) }

// MulK is Mul under a kernel context. Output rows are split into
// contiguous chunks; each chunk runs the serial Gustavson row loop into
// its own accumulator and emits a private (colIdx, val) segment, and the
// segments are concatenated in chunk order — so the assembled CSR is
// byte-identical to the serial result for any thread count.
func (m *CSR) MulK(kc tensor.K, b *CSR) *CSR {
	if m.Cols != b.Rows {
		shapePanic("Mul", "inner dimensions must agree (a.Cols == b.Rows)",
			tensor.Dim("a", m.Rows, m.Cols), tensor.Dim("b", b.Rows, b.Cols))
	}
	defer kernDone(kc, time.Now())
	// Work per row ≈ 2 · nnz(a)/rows · nnz(b)/rows flops through the
	// accumulator map (map ops dominate, hence the extra factor).
	workPerRow := 1
	if m.Rows > 0 && b.Rows > 0 {
		workPerRow = 8 * (m.NNZ()/m.Rows + 1) * (b.NNZ()/b.Rows + 1)
	}
	nch := kc.NumChunks(m.Rows, workPerRow)
	type segment struct {
		rowNNZ []int // entries per output row in this chunk
		colIdx []int
		val    []float64
	}
	segs := make([]segment, nch)
	kc.ParChunks(m.Rows, workPerRow, func(chunk, lo, hi int) {
		acc := make(map[int]float64)
		cols := make([]int, 0, 64)
		seg := segment{rowNNZ: make([]int, 0, hi-lo)}
		for i := lo; i < hi; i++ {
			for k := range acc {
				delete(acc, k)
			}
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				av := m.Val[k]
				r := m.ColIdx[k]
				// float64(…) rounds the product before the add, so
				// no compiler may fuse the two (KERNELS.md §2, Rule 3).
				for kb := b.RowPtr[r]; kb < b.RowPtr[r+1]; kb++ {
					acc[b.ColIdx[kb]] += float64(av * b.Val[kb])
				}
			}
			cols = cols[:0]
			for c, v := range acc {
				if v != 0 {
					cols = append(cols, c)
				}
			}
			insertionSort(cols)
			for _, c := range cols {
				seg.colIdx = append(seg.colIdx, c)
				seg.val = append(seg.val, acc[c])
			}
			seg.rowNNZ = append(seg.rowNNZ, len(cols))
		}
		segs[chunk] = seg
	})
	rowPtr := make([]int, m.Rows+1)
	var total int
	for _, seg := range segs {
		total += len(seg.val)
	}
	colIdx := make([]int, 0, total)
	val := make([]float64, 0, total)
	row := 0
	for _, seg := range segs {
		for _, nnz := range seg.rowNNZ {
			rowPtr[row+1] = rowPtr[row] + nnz
			row++
		}
		colIdx = append(colIdx, seg.colIdx...)
		val = append(val, seg.val...)
	}
	return &CSR{Rows: m.Rows, Cols: b.Cols, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// EstimateMatMulDensity predicts the density of a×b from input densities
// and the inner dimension, under the standard independence assumption:
// P(out non-zero) = 1 − (1 − da·db)^k. This is the simple estimator the
// cost model uses in lieu of the MNC sketches the paper defers to future
// work.
func EstimateMatMulDensity(da, db float64, k int64) float64 {
	if da <= 0 || db <= 0 {
		return 0
	}
	if da >= 1 && db >= 1 {
		return 1
	}
	p := float64(da * db) // rounded, so that 1−p cannot fuse: plans are priced with this (KERNELS.md §2, Rule 3)
	// 1 − (1−p)^k without float underflow for tiny p·k.
	if pk := p * float64(k); pk < 1e-6 {
		return pk
	}
	q := 1.0
	// Exponentiation by squaring on (1−p)^k.
	base, e := 1-p, k
	for e > 0 {
		if e&1 == 1 {
			q *= base
		}
		base *= base
		e >>= 1
	}
	return 1 - q
}
