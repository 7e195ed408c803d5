// Package engine is the relational substrate the optimizer's plans run
// on — the stand-in for the paper's SimSQL and PlinyCompute deployments —
// and the home of the one operator table every runtime interprets.
// Matrices are relations of (key…, matrix-block) tuples hash partitioned
// across shards; the physical operators (operators.go) are per-tuple
// maps, broadcast joins, co-partitioned joins, shuffle joins and
// group-by-SUM aggregation, each written once against the small movement
// interface Mover (mover.go). Engine interprets the table sequentially
// at one shard with no fabric and no goroutines; internal/dist
// implements Mover over its fabric and scheduler and interprets the same
// table at P shards, which is why the two produce identical bytes.
//
// The engine has two modes. Execute (RunPlan) materializes real data and
// computes real results, validating every implementation's semantics at
// laptop scale and producing the measurements the cost model is
// calibrated on. Simulate walks the identical lowered plan at paper
// scale without materializing data, advancing a virtual clock from the
// calibrated cost model — the substitution (documented in DESIGN.md) for
// the paper's EC2 clusters. Either way the engine is handed a lowered
// plan: lowering belongs to whoever holds the annotation and the
// environment it was optimized in.
package engine

import (
	"fmt"
	"sync/atomic"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/shape"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// Key is a tuple's chunk coordinate: (tileRow, tileCol) for tiles,
// (tileRow, 0) for row strips, (0, tileCol) for column strips, the
// element coordinate for COO triples, and (0, 0) for single layouts.
type Key struct {
	I, J int64
}

// Tuple is one relation row: a key plus exactly one payload variant.
type Tuple struct {
	Key   Key
	Dense *tensor.Dense
	CSR   *sparse.CSR
	Val   float64 // COO payload (with Key as the coordinate)
	IsVal bool
}

// Bytes returns the payload size used for network accounting.
func (t Tuple) Bytes() int64 {
	switch {
	case t.Dense != nil:
		return t.Dense.Bytes()
	case t.CSR != nil:
		return t.CSR.Bytes()
	case t.IsVal:
		return 16
	}
	return 0
}

// Relation is a matrix stored in a physical format, partitioned across
// the executing runtime's shards (one for the sequential engine).
// Chunked formats (tile, strips, COO) keep every tuple on the shard its
// key hashes to; single-kind formats (single, csr-single) hold their one
// tuple on whichever shard produced it.
type Relation struct {
	Format format.Format
	Shape  shape.Shape
	Parts  [][]Tuple // Parts[s] = tuples resident on shard s
}

// NumTuples returns the total tuple count.
func (r *Relation) NumTuples() int64 {
	var n int64
	for _, p := range r.Parts {
		n += int64(len(p))
	}
	return n
}

// Bytes returns the total payload bytes.
func (r *Relation) Bytes() int64 {
	var n int64
	for _, p := range r.Parts {
		for _, t := range p {
			n += t.Bytes()
		}
	}
	return n
}

// Stats counts what the engine's executions actually did. FLOPs is
// exact, from each operator's own formula; the benchmark reports it as
// engine.flops. Movement is not counted here: the sequential engine
// moves nothing, the dist runtime meters real bytes in its Report, and
// costmodel.Features holds the analytic volumes.
type Stats struct {
	FLOPs int64 // floating-point operations executed
}

// Engine executes lowered plans sequentially; Cluster supplies the
// per-tuple size bound.
type Engine struct {
	Cluster costmodel.Cluster

	// KernelThreads bounds the threads each local compute kernel may
	// use (they run on the shared pool in internal/pool, so the process
	// never exceeds GOMAXPROCS kernel threads in total). ≤ 0 means
	// auto: use the whole machine. 1 forces serial kernels. Results are
	// bit-identical at every setting.
	KernelThreads int

	flops atomic.Int64
}

// New returns an engine with the given cluster profile.
func New(cl costmodel.Cluster) *Engine { return &Engine{Cluster: cl} }

// kern returns the kernel context operators run local compute under.
func (e *Engine) kern() tensor.K {
	if e.KernelThreads > 0 {
		return tensor.K{Threads: e.KernelThreads}
	}
	return tensor.Auto()
}

// Stats returns a snapshot of the counters.
func (e *Engine) Stats() Stats {
	return Stats{FLOPs: e.flops.Load()}
}

// String summarizes the relation — shape, format, tuple count — for
// error messages and debugging; it never prints tuple data.
func (r *Relation) String() string {
	return fmt.Sprintf("Relation(%v, %v, %d tuples)", r.Shape, r.Format, r.NumTuples())
}
