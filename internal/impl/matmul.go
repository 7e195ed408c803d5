package impl

import (
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// Exported handles for the matrix-multiply implementations; the engine
// and tests refer to them by these variables.
var (
	MMSingleSingle           *Impl
	MMSingleColStripBcast    *Impl
	MMRowStripSingleBcast    *Impl
	MMRowStripColStrip       *Impl
	MMColStripRowStripAgg    *Impl
	MMTileTileShuffle        *Impl
	MMTileTileBcast          *Impl
	MMSingleTileBcast        *Impl
	MMTileSingleBcast        *Impl
	MMCSRSingleSingle        *Impl
	MMCSRBcastRowStripAgg    *Impl
	MMCSRRowStripSingleBcast *Impl
	MMCOOBcastSingle         *Impl
)

// mmFlopsDense is the dense multiply flop count 2·r·k·c.
func mmFlopsDense(a, b shape.Shape) float64 {
	return 2 * float64(a.Rows) * float64(a.Cols) * float64(b.Cols)
}

// mmFlopsSparseLeft is the flop count when the left operand stores only
// non-zeros: 2·nnz(A)·c.
func mmFlopsSparseLeft(a Input, b shape.Shape) float64 {
	nnz := a.Density * float64(a.Shape.Elems())
	return 2 * nnz * float64(b.Cols)
}

func init() {
	MMSingleSingle = register("mm-single-single", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.Single || b.Format.Kind != format.Single {
				return Out{}, false
			}
			moved := bytesOf(a)
			if bytesOf(b) < moved {
				moved = bytesOf(b)
			}
			return Out{
				Format: format.NewSingle(),
				Features: costmodel.Features{
					FLOPs:    mmFlopsDense(a.Shape, b.Shape), // one worker computes
					NetBytes: moved,
					Tuples:   2,
				},
				PeakWorkerBytes: bytesOf(a) + bytesOf(b) + denseOutBytes(outShape),
			}, true
		})

	MMSingleColStripBcast = register("mm-bcast-single-colstrip", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.Single || b.Format.Kind != format.ColStrip {
				return Out{}, false
			}
			tb := tuplesOf(b)
			return Out{
				Format: format.NewColStrip(b.Format.Block),
				Features: costmodel.Features{
					FLOPs:    costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape), cl.Workers, tb),
					NetBytes: costmodel.BroadcastBytes(bytesOf(a), cl.Workers),
					Tuples:   perWorker(float64(tb), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(a), tupleBytes(b)),
			}, true
		})

	MMRowStripSingleBcast = register("mm-rowstrip-bcast-single", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.RowStrip || b.Format.Kind != format.Single {
				return Out{}, false
			}
			ta := tuplesOf(a)
			return Out{
				Format: format.NewRowStrip(a.Format.Block),
				Features: costmodel.Features{
					FLOPs:    costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape), cl.Workers, ta),
					NetBytes: costmodel.BroadcastBytes(bytesOf(b), cl.Workers),
					Tuples:   perWorker(float64(ta), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(b), tupleBytes(a)),
			}, true
		})

	// Pipelined cross join of row strips with column strips of the same
	// extent; every (strip, strip) pair yields one finished output tile,
	// so no aggregation is needed (the §2.1 "implementation 1" multiply).
	MMRowStripColStrip = register("mm-rowstrip-colstrip", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.RowStrip || b.Format.Kind != format.ColStrip ||
				a.Format.Block != b.Format.Block {
				return Out{}, false
			}
			ta, tb := tuplesOf(a), tuplesOf(b)
			small, large := bytesOf(a), bytesOf(b)
			if small > large {
				small, large = large, small
			}
			pairs := ta * tb
			return Out{
				Format: format.NewTile(a.Format.Block),
				Features: costmodel.Features{
					FLOPs:      costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape), cl.Workers, pairs),
					NetBytes:   costmodel.BroadcastBytes(small, cl.Workers),
					InterBytes: perWorker(denseOutBytes(outShape), cl.Workers),
					Tuples:     perWorker(float64(pairs), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(small, tupleBytes(a), tupleBytes(b)),
			}, true
		})

	// Co-partitioned join of column strips with row strips on the strip
	// index; each matched pair yields a full-size partial product that a
	// global SUM reduces — the "inner-product" multiply producing an
	// unchunked result.
	MMColStripRowStripAgg = register("mm-colstrip-rowstrip-agg", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.ColStrip || b.Format.Kind != format.RowStrip ||
				a.Format.Block != b.Format.Block {
				return Out{}, false
			}
			strips := tuplesOf(a)
			outB := denseOutBytes(outShape)
			partials := float64(strips) * outB
			addFlops := partials / 8
			return Out{
				Format: format.NewSingle(),
				Features: costmodel.Features{
					FLOPs: costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape)+addFlops,
						cl.Workers, strips),
					NetBytes: costmodel.ShuffleBytes(bytesOf(a)+bytesOf(b), cl.Workers) +
						costmodel.AggregateBytes(outB, cl.Workers),
					InterBytes: perWorker(partials, cl.Workers),
					Tuples:     perWorker(float64(2*strips), cl.Workers),
				},
				// Partials are reduced eagerly per worker: two output
				// buffers resident; the co-partitioned inputs stream.
				PeakWorkerBytes: streamPeak(2*outB, tupleBytes(a), tupleBytes(b)),
			}, true
		})

	// Shuffle join of equal tile grids on lhs.tileCol = rhs.tileRow,
	// followed by a group-by (tileRow, tileCol) SUM — the §1 SQL multiply.
	MMTileTileShuffle = register("mm-tile-tile-shuffle", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.Tile || b.Format.Kind != format.Tile ||
				a.Format.Block != b.Format.Block {
				return Out{}, false
			}
			s := a.Format.Block
			kTiles := shape.CeilDiv(a.Shape.Cols, s)
			prodTiles := shape.CeilDiv(outShape.Rows, s) * shape.CeilDiv(outShape.Cols, s) * kTiles
			interTotal := float64(prodTiles) * float64(s*s) * 8
			addFlops := interTotal / 8
			return Out{
				Format: format.NewTile(s),
				Features: costmodel.Features{
					FLOPs: costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape)+addFlops,
						cl.Workers, prodTiles),
					NetBytes: costmodel.ShuffleBytes(bytesOf(a)+bytesOf(b), cl.Workers) +
						costmodel.ShuffleBytes(interTotal, cl.Workers),
					InterBytes: perWorker(interTotal, cl.Workers),
					Tuples:     perWorker(float64(tuplesOf(a)+tuplesOf(b)+2*prodTiles), cl.Workers),
				},
				// RAM holds the combiner's output share; the raw join
				// output spills to scratch and is charged plan-wide (the
				// "too much intermediate data" failure mode in Simulate).
				PeakWorkerBytes: streamPeak(perWorker(denseOutBytes(outShape), cl.Workers), tupleBytes(a), tupleBytes(b)),
			}, true
		})

	// Tile×tile with the smaller matrix broadcast whole and the larger
	// repartitioned by output column group, so aggregation stays local.
	MMTileTileBcast = register("mm-tile-tile-bcast", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.Tile || b.Format.Kind != format.Tile ||
				a.Format.Block != b.Format.Block {
				return Out{}, false
			}
			small, large := bytesOf(a), bytesOf(b)
			if small > large {
				small, large = large, small
			}
			tasks := tuplesOf(a) + tuplesOf(b)
			return Out{
				Format: format.NewTile(a.Format.Block),
				Features: costmodel.Features{
					FLOPs: costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape), cl.Workers, tasks),
					NetBytes: costmodel.BroadcastBytes(small, cl.Workers) +
						costmodel.ShuffleBytes(large, cl.Workers),
					Tuples: perWorker(float64(tasks), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(small+perWorker(denseOutBytes(outShape), cl.Workers), tupleBytes(a), tupleBytes(b)),
			}, true
		})

	// Broadcast single lhs against a tiled rhs repartitioned by tile
	// column; local sums produce column strips of the tile width.
	MMSingleTileBcast = register("mm-bcast-single-tile", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.Single || b.Format.Kind != format.Tile {
				return Out{}, false
			}
			tb := tuplesOf(b)
			return Out{
				Format: format.NewColStrip(b.Format.Block),
				Features: costmodel.Features{
					FLOPs: costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape), cl.Workers, tb),
					NetBytes: costmodel.BroadcastBytes(bytesOf(a), cl.Workers) +
						costmodel.ShuffleBytes(bytesOf(b), cl.Workers),
					Tuples: perWorker(float64(tb), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(a)+perWorker(denseOutBytes(outShape), cl.Workers), tupleBytes(b)),
			}, true
		})

	MMTileSingleBcast = register("mm-tile-bcast-single", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.Tile || b.Format.Kind != format.Single {
				return Out{}, false
			}
			ta := tuplesOf(a)
			return Out{
				Format: format.NewRowStrip(a.Format.Block),
				Features: costmodel.Features{
					FLOPs: costmodel.ParallelFLOPs(mmFlopsDense(a.Shape, b.Shape), cl.Workers, ta),
					NetBytes: costmodel.BroadcastBytes(bytesOf(b), cl.Workers) +
						costmodel.ShuffleBytes(bytesOf(a), cl.Workers),
					Tuples: perWorker(float64(ta), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(b)+perWorker(denseOutBytes(outShape), cl.Workers), tupleBytes(a)),
			}, true
		})

	MMCSRSingleSingle = register("mm-csr-single-single", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.CSRSingle || b.Format.Kind != format.Single {
				return Out{}, false
			}
			moved := bytesOf(a)
			if bytesOf(b) < moved {
				moved = bytesOf(b)
			}
			return Out{
				Format: format.NewSingle(),
				Features: costmodel.Features{
					FLOPs:    mmFlopsSparseLeft(a, b.Shape),
					NetBytes: moved,
					Tuples:   2,
				},
				PeakWorkerBytes: bytesOf(a) + bytesOf(b) + denseOutBytes(outShape),
			}, true
		})

	// Broadcast a sparse single-tuple lhs (cheap: only non-zeros move)
	// against row strips of the rhs; per-worker partial products are
	// tree-reduced into a single output. This is the plan that exploits
	// very sparse inputs in the Figure 12 experiments.
	MMCSRBcastRowStripAgg = register("mm-bcast-csr-rowstrip-agg", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.CSRSingle || b.Format.Kind != format.RowStrip {
				return Out{}, false
			}
			strips := tuplesOf(b)
			outB := denseOutBytes(outShape)
			return Out{
				Format: format.NewSingle(),
				Features: costmodel.Features{
					FLOPs: costmodel.ParallelFLOPs(mmFlopsSparseLeft(a, b.Shape)+outB/8,
						cl.Workers, strips),
					NetBytes: costmodel.BroadcastBytes(bytesOf(a), cl.Workers) +
						costmodel.AggregateBytes(outB, cl.Workers),
					InterBytes: perWorker(float64(min(strips, int64(cl.Workers)))*outB, cl.Workers),
					Tuples:     perWorker(float64(strips), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(a)+2*outB, tupleBytes(b)),
			}, true
		})

	MMCSRRowStripSingleBcast = register("mm-csr-rowstrip-bcast-single", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.CSRRowStrip || b.Format.Kind != format.Single {
				return Out{}, false
			}
			ta := tuplesOf(a)
			return Out{
				Format: format.NewRowStrip(a.Format.Block),
				Features: costmodel.Features{
					FLOPs:    costmodel.ParallelFLOPs(mmFlopsSparseLeft(a, b.Shape), cl.Workers, ta),
					NetBytes: costmodel.BroadcastBytes(bytesOf(b), cl.Workers),
					Tuples:   perWorker(float64(ta), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(b), tupleBytes(a)),
			}, true
		})

	// Relational-triple lhs broadcast against a single rhs; the per-triple
	// tuple overhead is what makes COO unattractive except as a load
	// format.
	MMCOOBcastSingle = register("mm-bcast-coo-single", op.MatMul,
		func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
			a, b := ins[0], ins[1]
			if a.Format.Kind != format.COO || b.Format.Kind != format.Single {
				return Out{}, false
			}
			ta := tuplesOf(a)
			return Out{
				Format: format.NewSingle(),
				Features: costmodel.Features{
					FLOPs: mmFlopsSparseLeft(a, b.Shape),
					NetBytes: costmodel.BroadcastBytes(bytesOf(b), cl.Workers) +
						costmodel.AggregateBytes(denseOutBytes(outShape), cl.Workers),
					Tuples: perWorker(float64(ta), cl.Workers),
				},
				PeakWorkerBytes: streamPeak(bytesOf(b) + 2*denseOutBytes(outShape)),
			}, true
		})
}
