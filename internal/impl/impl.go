// Package impl defines the set I of atomic computation implementations
// (§3): concrete, costed strategies for executing an atomic computation
// over specific physical matrix implementations. The prototype ships the
// paper's 38 implementations (twelve distributed matrix-multiply
// strategies plus two extra sparse multiplies, three transposes, six
// elementwise-binary strategies, six format-preserving maps, and the
// softmax / bias / reduction / inverse family).
//
// Each implementation exposes the paper's type specification function
// f : (M×P)ⁿ → P ∪ {⊥} through Apply, which also returns the analytic
// cost features of §7 and the per-worker peak working set used for the
// memory-feasibility check (an implementation whose working set exceeds
// the cluster's RAM per worker returns ⊥, reproducing the paper's Fail
// entries).
package impl

import (
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// ID identifies an implementation; the engine dispatches physical
// operators on it.
type ID uint8

// Input is one (matrix type, physical implementation) argument.
type Input struct {
	Shape   shape.Shape
	Density float64 // non-zero fraction
	Format  format.Format
}

// Out is the result of applying an implementation's type specification
// function: the output physical format plus costing metadata.
type Out struct {
	Format          format.Format
	Features        costmodel.Features
	PeakWorkerBytes float64
}

// Impl is one atomic computation implementation.
type Impl struct {
	ID   ID
	Name string
	Op   op.Kind
	// apply implements f and the feature computation; it may assume the
	// arity and op kind were already checked.
	apply func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool)
}

func (im *Impl) String() string { return im.Name }

// Apply evaluates the implementation on the given inputs. ok is false
// (the paper's ⊥) when the implementation cannot process the input
// formats, when the output format cannot represent the output matrix, or
// when the per-worker working set exceeds the cluster's RAM.
func (im *Impl) Apply(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool) {
	if o.Kind != im.Op || len(ins) != o.Arity() {
		return Out{}, false
	}
	for _, in := range ins {
		if !in.Format.Valid(in.Shape, in.Density, cl.MaxTupleBytes) {
			return Out{}, false
		}
	}
	out, ok := im.apply(o, ins, outShape, outDensity, cl)
	if !ok {
		return Out{}, false
	}
	if !out.Format.Valid(outShape, outDensity, cl.MaxTupleBytes) {
		return Out{}, false
	}
	if out.PeakWorkerBytes > float64(cl.RAMPerWorker) {
		return Out{}, false
	}
	return out, true
}

// Cost returns the model-predicted seconds for an already-validated Out.
func (im *Impl) Cost(m *costmodel.Model, out Out) float64 {
	return m.Predict(im.Name, out.Features)
}

// --- registry ---

var registry []*Impl
var byOp map[op.Kind][]*Impl

func register(name string, kind op.Kind,
	apply func(o op.Op, ins []Input, outShape shape.Shape, outDensity float64, cl costmodel.Cluster) (Out, bool)) *Impl {
	if byOp == nil {
		byOp = make(map[op.Kind][]*Impl)
	}
	im := &Impl{ID: ID(len(registry)), Name: name, Op: kind, apply: apply}
	registry = append(registry, im)
	byOp[kind] = append(byOp[kind], im)
	return im
}

// All returns every registered implementation.
func All() []*Impl { return registry }

// ForOp returns the implementations of one atomic computation.
func ForOp(k op.Kind) []*Impl { return byOp[k] }

// ByName returns the implementation with the given name, or nil.
func ByName(name string) *Impl {
	for _, im := range registry {
		if im.Name == name {
			return im
		}
	}
	return nil
}

// --- shared feature helpers ---

func bytesOf(in Input) float64 {
	return float64(in.Format.Bytes(in.Shape, in.Density))
}

func tuplesOf(in Input) int64 {
	return in.Format.NumTuplesDensity(in.Shape, in.Density)
}

func perWorker(total float64, workers int) float64 { return total / float64(workers) }

// denseOutBytes is the dense materialized size of the output.
func denseOutBytes(s shape.Shape) float64 { return float64(s.Bytes()) }

// tupleBytes returns the largest tuple payload of an input.
func tupleBytes(in Input) float64 {
	return float64(in.Format.MaxTupleBytes(in.Shape, in.Density))
}

// streamPeak models the RAM footprint of a streaming (disk-backed,
// per-tuple) operator: resident structures (e.g. a broadcast matrix or
// an aggregation buffer) plus a handful of in-flight tuples.
func streamPeak(resident float64, tuples ...float64) float64 {
	peak := resident
	for _, t := range tuples {
		peak += 2 * t
	}
	return peak
}
