package sparse

import (
	"math"
	"time"

	"matopt/internal/tensor"
)

// shapePanic panics with a typed *tensor.ShapeError for a sparse kernel.
func shapePanic(kernel, want string, dims ...string) {
	panic(&tensor.ShapeError{Kernel: "sparse." + kernel, Want: want, Dims: dims})
}

// kernDone reports the wall time since t0 to a kernel context's timer.
// Defer it only when a Timer is attached, so that an unmetered kernel
// never reads the clock (as tensor.K's kernels do not).
func kernDone(timer func(ns int64), t0 time.Time) {
	timer(time.Since(t0).Nanoseconds())
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

// MulDenseK returns the dense product a×b for CSR a and dense b under
// a kernel context. The output of a sparse-data × dense-model multiply
// is dense (§7 of the paper), so the result is materialized densely.
// Output rows are partitioned into contiguous chunks (a CSR row is owned
// by exactly one chunk, and its accumulation order over stored entries
// is unchanged), so any thread count is bit-identical to serial.
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
// still fuses its products into its sum in ascending stored-entry
// order, one rounding each. The
// output may come dirty off the free list (tensor.DrawAccumulator): a
// chunk then clears its rows' share of a column block right before it
// accumulates into it.
//
// A CSR that stores every cell is a dense matrix: its columns ascend,
// so Val is already its row-major data, and the product runs on the
// GEMM register tile instead. That is the same operation sequence per
// element (KERNELS.md §2) — start at +0, fuse every product into the
// sum in ascending k — and no cell is missing for a zero-skip to differ
// on.
func (m *CSR) MulDenseK(kc tensor.K, b *tensor.Dense) *tensor.Dense {
	if m.Cols != b.Rows {
		shapePanic("MulDense", "inner dimensions must agree (a.Cols == b.Rows)",
			tensor.Dim("a", m.Rows, m.Cols), tensor.Dim("b", b.Rows, b.Cols))
	}
	if m.NNZ() == m.Rows*m.Cols {
		// The view borrows Val and must never reach tensor.Release: the
		// CSR owns the array (engine.Storage recycles it with the CSR).
		// kc.MatMul reports to kc.Timer itself.
		return kc.MatMul(&tensor.Dense{Rows: m.Rows, Cols: m.Cols, Data: m.Val}, b)
	}
	if kc.Timer != nil {
		defer kernDone(kc.Timer, time.Now())
	}
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
		cur := tensor.DrawInts(hi - lo) // per row: its first entry not yet multiplied in this column block
		defer tensor.ReleaseInts(cur)
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

// EstimateMatMulDensity predicts the density of a×b from input densities
// and the inner dimension, under the standard independence assumption:
// P(out non-zero) = 1 − (1 − da·db)^k. It is the only density estimator
// the cost model prices plans with.
func EstimateMatMulDensity(da, db float64, k int64) float64 {
	if da <= 0 || db <= 0 {
		return 0
	}
	if da >= 1 && db >= 1 {
		return 1
	}
	p := float64(da * db) // rounded, so that 1−p cannot fuse: plans are priced with this, the same on every architecture (KERNELS.md §2, Rule 3)
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
