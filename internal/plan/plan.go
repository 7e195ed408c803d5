// Package plan defines the serializable physical-plan IR shared by every
// execution engine. Lowering turns an optimizer annotation
// (core.Annotation) into an explicit DAG of physical operators — scan,
// re-layout transform, compute (broadcast/shuffle/co-partition join,
// group-by-SUM aggregate, map, local), and free — with every format,
// implementation, and transformation decision resolved up front. The
// sequential engine, the simulator, the adaptive executor, and the
// sharded dist runtime all execute this one IR instead of re-interpreting
// the annotation, so cross-engine bit-identical outputs are a property of
// a single lowering pass rather than of three interpreters agreeing.
//
// The IR is deliberately engine-invariant: Lower takes no engine kind and
// no shard count, so one lowered plan (and one plan-cache entry) is valid
// under any engine. Engines differ only in scheduling policy — the
// sequential engine interprets nodes in linear order, while the dist
// runtime fuses each compute node with its feeding re-layout nodes into a
// per-vertex recovery group that it can retry as a unit.
package plan

import (
	"fmt"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// Kind classifies a physical-plan node.
type Kind uint8

const (
	// KindScan loads a source matrix in its declared format.
	KindScan Kind = iota
	// KindRelayout re-lays-out one input edge's relation into the format
	// the consuming implementation requires (a paper §3 transformation).
	KindRelayout
	// KindCompute runs one atomic computation under a chosen physical
	// implementation.
	KindCompute
	// KindFree releases a value whose last consumer has executed.
	KindFree
)

// String returns the node kind's lower-case name.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindRelayout:
		return "relayout"
	case KindCompute:
		return "compute"
	case KindFree:
		return "free"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Node is one physical operator in a lowered plan. Nodes are stored in
// execution order (a topological order of the DAG); Inputs reference
// earlier node IDs.
type Node struct {
	// ID is the node's index in Plan.Nodes.
	ID int
	// Kind classifies the operator.
	Kind Kind
	// Vertex is the logical graph vertex this node belongs to: the
	// producing vertex for scans and computes, the consuming vertex for
	// re-layouts (they live on an input edge), and the vertex whose
	// value is released for frees.
	Vertex int
	// Arg is the consumer's input position for re-layout nodes; zero
	// otherwise.
	Arg int
	// Name is the physical operator name: the implementation name for
	// computes, the transformation name for re-layouts, "load" for
	// scans, and "free" for frees.
	Name string
	// Source is the source matrix name for scan nodes.
	Source string
	// Op is the atomic computation for compute nodes.
	Op op.Op
	// Inputs are the IDs of the nodes whose values this node consumes
	// (for frees: the single node whose value is released).
	Inputs []int
	// InFormats are the physical formats the node requires of its
	// inputs, aligned with Inputs.
	InFormats []format.Format
	// OutFormat is the physical format of the node's output.
	OutFormat format.Format
	// OutShape is the shape of the node's output.
	OutShape shape.Shape
	// OutDensity is the estimated non-zero fraction of the output.
	OutDensity float64
	// Cost is the model-predicted seconds for this operator.
	Cost float64
	// Features are the analytic cost features the prediction used.
	Features costmodel.Features
	// PeakWorkerBytes is the operator's largest per-worker working set.
	PeakWorkerBytes float64
	// Strategy is the operator's physical strategy class: "scan",
	// "re-layout", "local", "map", "broadcast-join", "shuffle-join",
	// "co-partition-join", "group-by-sum", or "free".
	Strategy string
}

// Plan is a lowered physical plan: the node DAG in execution order plus
// the bookkeeping engines need to run it and report on it.
type Plan struct {
	// Graph is the logical computation the plan was lowered from.
	Graph *core.Graph
	// Ann is the annotation the plan was lowered from: the search's, or
	// the one Decode completed from a payload's decisions.
	Ann *core.Annotation
	// Nodes holds every physical operator in execution order.
	Nodes []*Node
	// NodeOfVertex maps a graph vertex ID to the ID of the node that
	// produces its value (a scan or compute node).
	NodeOfVertex []int
	// Retained lists the vertex IDs whose values survive the run
	// (sinks plus any explicitly kept vertices), in increasing order.
	Retained []int
	// OptSeconds is the optimizer time recorded on the annotation.
	OptSeconds float64
}

// PredictedSeconds sums the model-predicted cost of every node — the
// plan's virtual wall time, identical to the annotation's Total.
func (p *Plan) PredictedSeconds() float64 {
	var s float64
	for _, n := range p.Nodes {
		s += n.Cost
	}
	return s
}

// Counts returns the number of scan, re-layout, compute, and free nodes.
func (p *Plan) Counts() (scans, relayouts, computes, frees int) {
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindScan:
			scans++
		case KindRelayout:
			relayouts++
		case KindCompute:
			computes++
		case KindFree:
			frees++
		}
	}
	return
}
