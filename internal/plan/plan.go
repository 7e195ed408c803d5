// Package plan defines the serializable physical-plan IR shared by every
// execution engine. Lowering turns an optimizer annotation
// (core.Annotation) into an explicit DAG of physical operators — scan,
// re-layout transform, and compute (broadcast/shuffle/co-partition join,
// group-by-SUM aggregate, map, local) — with every format,
// implementation, and transformation decision resolved up front. The
// sequential engine, the simulator, the adaptive executor, and the
// sharded dist runtime all execute this one IR instead of re-interpreting
// the annotation, so cross-engine bit-identical outputs are a property of
// a single lowering pass rather than of three interpreters agreeing.
//
// The IR is deliberately engine-invariant: Lower takes no engine kind and
// no shard count, so one lowered plan (and one plan-cache entry) is valid
// under any engine. Both runtimes run a plan as its Steps — one per
// vertex: the producing node with the re-layouts fused into its input
// edges — and release a value when its count in Consumers reaches zero.
// They differ only in scheduling policy: the sequential engine runs the
// steps in order, the dist runtime runs every ready step concurrently
// and retries a failed one as a unit.
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
	// re-layouts (they live on an input edge).
	Vertex int
	// Arg is the consumer's input position for re-layout nodes; zero
	// otherwise.
	Arg int
	// Name is the physical operator name: the implementation name for
	// computes, the transformation name for re-layouts, and "load" for
	// scans.
	Name string
	// Source is the source matrix name for scan nodes.
	Source string
	// Op is the atomic computation for compute nodes.
	Op op.Op
	// Inputs are the IDs of the nodes whose values this node consumes.
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
	// "co-partition-join" or "group-by-sum".
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

// Counts returns the number of scan, re-layout and compute nodes.
func (p *Plan) Counts() (scans, relayouts, computes int) {
	for _, n := range p.Nodes {
		switch n.Kind {
		case KindScan:
			scans++
		case KindRelayout:
			relayouts++
		case KindCompute:
			computes++
		}
	}
	return
}

// Step is one vertex's unit of execution and recovery — the paper's
// per-vertex choice of an implementation and one transformation per
// in-edge: the vertex's producing node, the re-layout fused into each of
// its arguments, and the vertex each argument reads.
type Step struct {
	// Node is the vertex's producing node: a scan or a compute.
	Node *Node
	// Relayouts holds, per compute argument, the re-layout node the
	// argument passes through, nil on an identity edge.
	Relayouts []*Node
	// Deps holds, per compute argument, the vertex the argument reads.
	Deps []int
}

// Steps returns one step per vertex of a validated plan: Steps()[v] is
// vertex v's, and that order is an execution order.
func (p *Plan) Steps() []Step {
	steps := make([]Step, len(p.Graph.Vertices))
	for v, id := range p.NodeOfVertex {
		n := p.Nodes[id]
		s := Step{Node: n, Relayouts: make([]*Node, len(n.Inputs)), Deps: make([]int, len(n.Inputs))}
		for j, in := range n.Inputs {
			src := p.Nodes[in]
			if src.Kind == KindRelayout {
				s.Relayouts[j] = src
				src = p.Nodes[src.Inputs[0]]
			}
			s.Deps[j] = src.Vertex
		}
		steps[v] = s
	}
	return steps
}

// Consumers is the one liveness rule of both runtimes: for each vertex,
// the number of steps that read it, plus one if it is retained. A
// runtime decrements a vertex's count once per dep of each step it has
// completed and releases the value when the count reaches zero — after
// its last consumer, and never for a retained vertex.
func (p *Plan) Consumers() []int {
	refs := make([]int, len(p.Graph.Vertices))
	for _, s := range p.Steps() {
		for _, d := range s.Deps {
			refs[d]++
		}
	}
	for _, v := range p.Retained {
		refs[v]++
	}
	return refs
}
