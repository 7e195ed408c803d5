package plan

import (
	"errors"
	"fmt"

	"matopt/internal/impl"
	"matopt/internal/trans"
)

// ErrInvalidPlan reports a physical plan that fails pre-execution
// validation: a dangling node reference, a producer/consumer format
// mismatch, a re-layout outside its own edge, or an unknown physical
// operator. Every engine runs Validate before executing a plan, so a
// corrupted or hand-edited serialized plan is rejected before any data
// moves.
var ErrInvalidPlan = errors.New("plan: invalid physical plan")

// bad returns an error wrapping ErrInvalidPlan: what Validate and Decode
// refuse a plan with.
func bad(f string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidPlan, fmt.Sprintf(f, args...))
}

// Validate checks the structural and format soundness of the plan
// without touching data or the cost model: nodes are topologically
// ordered, every producer's output format matches the consumer's
// required input format, every re-layout reads a vertex's value and is
// read at most once, by its own vertex's compute at its own argument,
// every vertex has one producing node, and every compute and re-layout
// names a known physical operator — so Steps cannot fail on a plan that
// passes. It returns nil or an error wrapping ErrInvalidPlan.
func (p *Plan) Validate() error {
	if p == nil || p.Graph == nil {
		return bad("nil plan or graph")
	}
	read := make([]bool, len(p.Nodes))                   // re-layouts read by their compute
	produced := make(map[int]int, len(p.Graph.Vertices)) // vertex → producing node
	for i, n := range p.Nodes {
		if n == nil {
			return bad("node %d is nil", i)
		}
		if n.ID != i {
			return bad("node %d carries ID %d", i, n.ID)
		}
		if n.Vertex < 0 || n.Vertex >= len(p.Graph.Vertices) {
			return bad("node %d references vertex %d outside the graph", i, n.Vertex)
		}
		for _, in := range n.Inputs {
			if in < 0 || in >= i {
				return bad("node %d references node %d out of topological order", i, in)
			}
		}
		if len(n.InFormats) != len(n.Inputs) {
			return bad("node %d has %d input formats for %d inputs", i, len(n.InFormats), len(n.Inputs))
		}
		switch n.Kind {
		case KindScan:
			v := p.Graph.Vertices[n.Vertex]
			if !v.IsSource {
				return bad("scan node %d targets non-source vertex %d", i, n.Vertex)
			}
			if n.OutFormat != v.SrcFormat {
				return bad("scan node %d loads %v, source %d declares %v", i, n.OutFormat, v.ID, v.SrcFormat)
			}
			produced[n.Vertex] = i
		case KindRelayout:
			if len(n.Inputs) != 1 {
				return bad("re-layout node %d has %d inputs, want 1", i, len(n.Inputs))
			}
			if trans.ByName(n.Name) == nil {
				return bad("re-layout node %d names unknown transformation %q", i, n.Name)
			}
			src := p.Nodes[n.Inputs[0]]
			if src.Kind == KindRelayout {
				return bad("re-layout node %d reads re-layout node %d, not a vertex value", i, src.ID)
			}
			if src.OutFormat != n.InFormats[0] {
				return bad("re-layout node %d expects %v, producer node %d emits %v",
					i, n.InFormats[0], src.ID, src.OutFormat)
			}
		case KindCompute:
			if impl.ByName(n.Name) == nil {
				return bad("compute node %d names unknown implementation %q", i, n.Name)
			}
			for j, in := range n.Inputs {
				src := p.Nodes[in]
				if got := src.OutFormat; got != n.InFormats[j] {
					return bad("compute node %d (vertex %d) arg %d expects %v, producer node %d emits %v",
						i, n.Vertex, j, n.InFormats[j], in, got)
				}
				if src.Kind == KindRelayout {
					if read[in] || src.Vertex != n.Vertex || src.Arg != j {
						return bad("re-layout node %d (vertex %d arg %d) is read by vertex %d arg %d",
							in, src.Vertex, src.Arg, n.Vertex, j)
					}
					read[in] = true
				}
			}
			if prev, dup := produced[n.Vertex]; dup {
				return bad("vertex %d produced by both node %d and node %d", n.Vertex, prev, i)
			}
			produced[n.Vertex] = i
		default:
			return bad("node %d has unknown kind %d", i, uint8(n.Kind))
		}
	}
	if len(p.NodeOfVertex) != len(p.Graph.Vertices) {
		return bad("NodeOfVertex maps %d vertices, graph has %d", len(p.NodeOfVertex), len(p.Graph.Vertices))
	}
	for _, v := range p.Graph.Vertices {
		nid, ok := produced[v.ID]
		if !ok {
			return bad("vertex %d is never produced", v.ID)
		}
		if p.NodeOfVertex[v.ID] != nid {
			return bad("NodeOfVertex[%d] = %d, producing node is %d", v.ID, p.NodeOfVertex[v.ID], nid)
		}
	}
	for _, id := range p.Retained {
		if id < 0 || id >= len(p.Graph.Vertices) {
			return bad("retained vertex %d outside the graph", id)
		}
	}
	return nil
}
