// Package matopt automatically optimizes the physical implementation of
// distributed machine-learning and linear-algebra computations, as
// described in "Automatic Optimization of Matrix Implementations for
// Distributed Machine Learning and Linear Algebra" (SIGMOD 2021).
//
// A computation is expressed over abstract matrices with a Builder; the
// Optimizer then chooses a physical storage format for every input and
// intermediate matrix, an implementation for every operation, and the
// re-layout transformations between them, minimizing the predicted total
// running time on a cluster profile. The resulting Plan can be executed
// on real data with an Executor or walked at paper scale with Simulate.
//
// An Executor runs plans on one of two runtimes: the sequential
// reference engine (the default), or — with WithEngineKind(DistEngine) —
// a sharded multi-worker runtime that hash-partitions every relation
// across worker shards, executes independent DAG vertices concurrently,
// and meters every byte crossing a shard boundary (DistReport). The two
// produce bit-identical results. Every run-time knob of either runtime
// — shard count, kernel threads, retry budget, fallback, fault
// injection, worker peers — is a field of ExecConfig
// (set whole with WithExecConfig); the same struct is the /execute
// request body and the CLI's flags, and its one Validate method is
// applied by every run.
//
//	b := matopt.NewBuilder()
//	a := b.Input("A", 100, 10000, matopt.RowStrips(10))
//	m := b.Input("B", 10000, 100, matopt.ColStrips(10))
//	c := b.Input("C", 100, 1000000, matopt.ColStrips(10000))
//	out := b.MatMul(b.MatMul(a, m), c)
//	plan, err := matopt.NewOptimizer(matopt.ClusterR5D(5)).Optimize(b, out)
package matopt

import (
	"fmt"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// Matrix is a handle to an abstract matrix in a computation being built.
type Matrix struct {
	v *core.Vertex
	b *Builder
}

// Rows returns the matrix's logical row count.
func (m Matrix) Rows() int64 { return m.v.Shape.Rows }

// Cols returns the matrix's logical column count.
func (m Matrix) Cols() int64 { return m.v.Shape.Cols }

// Format is a physical matrix implementation for an input matrix.
type Format struct{ f format.Format }

// String names the format the way the optimizer's reports do, e.g.
// "single", "rowstrip[100]" or "tile[64]".
func (f Format) String() string { return f.f.String() }

// Single stores the matrix in one tuple.
func Single() Format { return Format{format.NewSingle()} }

// Tiles stores the matrix in b×b square tiles.
func Tiles(b int64) Format { return Format{format.NewTile(b)} }

// RowStrips stores the matrix in horizontal strips of height h.
func RowStrips(h int64) Format { return Format{format.NewRowStrip(h)} }

// ColStrips stores the matrix in vertical strips of width w.
func ColStrips(w int64) Format { return Format{format.NewColStrip(w)} }

// Triples stores the matrix as relational (row, col, value) triples.
func Triples() Format { return Format{format.NewCOO()} }

// SparseCSR stores the matrix as one CSR tuple.
func SparseCSR() Format { return Format{format.NewCSRSingle()} }

// SparseCSRStrips stores the matrix as CSR row strips of height h.
func SparseCSRStrips(h int64) Format { return Format{format.NewCSRRowStrip(h)} }

// Builder assembles a compute graph. Errors during construction are
// deferred to the Optimize call, so expressions compose fluently.
type Builder struct {
	g   *core.Graph
	err error
}

// NewBuilder returns an empty computation.
func NewBuilder() *Builder { return &Builder{g: core.NewGraph()} }

// NewBuilderFromGraph wraps an already-built compute graph in a Builder
// so pre-assembled computations (the internal workload generators, the
// serving layer's decoded request specs) can flow through
// Optimizer.Optimize. The graph must not be mutated afterwards; outputs
// are the graph's sinks. Like Builder.Graph and Optimizer.Env, this is
// an advanced hook — ordinary callers assemble computations with the
// Builder methods.
func NewBuilderFromGraph(g *core.Graph) *Builder { return &Builder{g: g} }

// Err returns the first error recorded while building, if any.
func (b *Builder) Err() error { return b.err }

// Graph exposes the underlying compute graph (read-only use intended).
func (b *Builder) Graph() *core.Graph { return b.g }

// Input declares a dense input matrix stored in format f.
func (b *Builder) Input(name string, rows, cols int64, f Format) Matrix {
	return b.SparseInput(name, rows, cols, 1, f)
}

// SparseInput declares an input with the given non-zero fraction.
func (b *Builder) SparseInput(name string, rows, cols int64, density float64, f Format) Matrix {
	if b.err != nil {
		return Matrix{b: b}
	}
	// shape.New still panics on non-positive extents; fold that into the
	// builder's deferred-error discipline alongside AddInput's errors.
	defer func() {
		if r := recover(); r != nil {
			b.err = fmt.Errorf("matopt: input %q: %v", name, r)
		}
	}()
	v, err := b.g.AddInput(name, shape.New(rows, cols), density, f.f)
	if err != nil {
		b.err = fmt.Errorf("matopt: input %q: %w", name, err)
		return Matrix{b: b}
	}
	return Matrix{v: v, b: b}
}

func (b *Builder) apply(o op.Op, ins ...Matrix) Matrix {
	if b.err != nil {
		return Matrix{b: b}
	}
	vs := make([]*core.Vertex, len(ins))
	for i, in := range ins {
		if in.v == nil {
			if b.err == nil {
				b.err = fmt.Errorf("matopt: %v applied to an invalid matrix", o)
			}
			return Matrix{b: b}
		}
		if in.b != b {
			b.err = fmt.Errorf("matopt: %v mixes matrices from different builders", o)
			return Matrix{b: b}
		}
		vs[i] = in.v
	}
	v, err := b.g.Apply(o, vs...)
	if err != nil {
		b.err = err
		return Matrix{b: b}
	}
	return Matrix{v: v, b: b}
}

// MatMul returns x×y.
func (b *Builder) MatMul(x, y Matrix) Matrix { return b.apply(op.Op{Kind: op.MatMul}, x, y) }

// Add returns x+y.
func (b *Builder) Add(x, y Matrix) Matrix { return b.apply(op.Op{Kind: op.Add}, x, y) }

// Sub returns x−y.
func (b *Builder) Sub(x, y Matrix) Matrix { return b.apply(op.Op{Kind: op.Sub}, x, y) }

// Hadamard returns the entrywise product x∘y.
func (b *Builder) Hadamard(x, y Matrix) Matrix { return b.apply(op.Op{Kind: op.Hadamard}, x, y) }

// Transpose returns xᵀ.
func (b *Builder) Transpose(x Matrix) Matrix { return b.apply(op.Op{Kind: op.Transpose}, x) }

// Scale returns s·x.
func (b *Builder) Scale(s float64, x Matrix) Matrix {
	return b.apply(op.Op{Kind: op.ScalarMul, Scalar: s}, x)
}

// Neg returns −x.
func (b *Builder) Neg(x Matrix) Matrix { return b.apply(op.Op{Kind: op.Neg}, x) }

// ReLU returns max(x, 0) entrywise.
func (b *Builder) ReLU(x Matrix) Matrix { return b.apply(op.Op{Kind: op.ReLU}, x) }

// ReLUGrad returns the ReLU derivative entrywise.
func (b *Builder) ReLUGrad(x Matrix) Matrix { return b.apply(op.Op{Kind: op.ReLUGrad}, x) }

// Sigmoid returns the logistic function entrywise.
func (b *Builder) Sigmoid(x Matrix) Matrix { return b.apply(op.Op{Kind: op.Sigmoid}, x) }

// Exp returns e^x entrywise.
func (b *Builder) Exp(x Matrix) Matrix { return b.apply(op.Op{Kind: op.Exp}, x) }

// Softmax returns the row-wise softmax.
func (b *Builder) Softmax(x Matrix) Matrix { return b.apply(op.Op{Kind: op.Softmax}, x) }

// RowSums returns the column vector of row sums.
func (b *Builder) RowSums(x Matrix) Matrix { return b.apply(op.Op{Kind: op.RowSums}, x) }

// ColSums returns the row vector of column sums.
func (b *Builder) ColSums(x Matrix) Matrix { return b.apply(op.Op{Kind: op.ColSums}, x) }

// AddBias adds a 1×cols bias row vector to every row of x.
func (b *Builder) AddBias(x, bias Matrix) Matrix { return b.apply(op.Op{Kind: op.AddBias}, x, bias) }

// Inverse returns x⁻¹ for square x.
func (b *Builder) Inverse(x Matrix) Matrix { return b.apply(op.Op{Kind: op.Inverse}, x) }

// Cluster is a hardware profile plans are optimized for.
type Cluster = costmodel.Cluster

// ClusterR5D returns the paper's SimSQL experimental cluster (§8.2).
func ClusterR5D(workers int) Cluster { return costmodel.EC2R5D(workers) }

// ClusterR5DN returns the paper's PlinyCompute cluster (§8.3).
func ClusterR5DN(workers int) Cluster { return costmodel.EC2R5DN(workers) }
