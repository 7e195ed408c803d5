// Package core implements the paper's primary contribution: compute
// graphs over abstract matrices (§4), type-correct annotations that bind
// an atomic computation implementation to every vertex and a physical
// matrix transformation to every edge, and the three optimization
// algorithms — exhaustive Brute (Alg. 2), the Felsenstein-style dynamic
// program for tree-shaped graphs (Alg. 3), and the Frontier dynamic
// program for general DAGs (Alg. 4).
//
// Searches run inside a Session, which threads a context.Context
// through all three algorithms (deadline → ErrTimeout, cancellation →
// context.Canceled), collects per-run Stats, and — when a tracer is
// attached with WithTracer — wraps each phase in obs spans ("frontier"
// with one "frontier.round" per expanded vertex, "treedp",
// "brute.enumerate"; DESIGN.md §11).
package core

import (
	"errors"
	"fmt"

	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// Vertex is one node of a compute graph. Source vertices carry an input
// matrix (shape, density and a given physical format); non-source
// vertices carry an atomic computation whose shape and density are
// inferred from their inputs.
type Vertex struct {
	ID   int
	Name string

	// Source fields.
	IsSource  bool
	SrcFormat format.Format // physical format of an input matrix

	// Non-source fields.
	Op  op.Op
	Ins []*Vertex // ordered arguments

	// Inferred by the builder.
	Shape   shape.Shape
	Density float64
	Outs    []*Vertex // consumers (a consumer appears once per edge)
}

func (v *Vertex) String() string {
	if v.IsSource {
		return fmt.Sprintf("%s:%v@%v", v.Name, v.Shape, v.SrcFormat)
	}
	return fmt.Sprintf("v%d:%v→%v", v.ID, v.Op, v.Shape)
}

// Graph is a compute DAG. Vertices are stored in construction order,
// which is a valid topological order because arguments must exist before
// they are used.
type Graph struct {
	Vertices []*Vertex
	byName   map[string]*Vertex
}

// NewGraph returns an empty compute graph.
func NewGraph() *Graph {
	return &Graph{byName: make(map[string]*Vertex)}
}

// AddInput adds a source vertex: an input matrix with the given shape,
// density (non-zero fraction in [0, 1]) and physical format. It returns
// an error for an out-of-range density or a duplicate name.
func (g *Graph) AddInput(name string, s shape.Shape, density float64, f format.Format) (*Vertex, error) {
	if density < 0 || density > 1 {
		return nil, fmt.Errorf("core: density %v outside [0,1]", density)
	}
	if _, dup := g.byName[name]; dup {
		return nil, fmt.Errorf("core: duplicate input name %q", name)
	}
	v := &Vertex{
		ID:        len(g.Vertices),
		Name:      name,
		IsSource:  true,
		SrcFormat: f,
		Shape:     s,
		Density:   density,
	}
	g.Vertices = append(g.Vertices, v)
	g.byName[name] = v
	return v, nil
}

// Input is AddInput for statically known-correct graph builders (the
// workload generators); it panics on the errors AddInput reports.
func (g *Graph) Input(name string, s shape.Shape, density float64, f format.Format) *Vertex {
	v, err := g.AddInput(name, s, density, f)
	if err != nil {
		panic(err)
	}
	return v
}

// Apply adds a non-source vertex computing o over the given arguments,
// inferring its shape and density. It returns an error for arity or
// shape mismatches (the op's type function returned ⊥).
func (g *Graph) Apply(o op.Op, ins ...*Vertex) (*Vertex, error) {
	if len(ins) != o.Arity() {
		return nil, fmt.Errorf("core: %v takes %d inputs, got %d", o, o.Arity(), len(ins))
	}
	shapes := make([]shape.Shape, len(ins))
	dens := make([]float64, len(ins))
	for i, in := range ins {
		if in == nil {
			return nil, errors.New("core: nil input vertex")
		}
		shapes[i] = in.Shape
		dens[i] = in.Density
	}
	outShape, ok := o.OutShape(shapes)
	if !ok {
		return nil, fmt.Errorf("core: %v rejects input shapes %v", o, shapes)
	}
	v := &Vertex{
		ID:      len(g.Vertices),
		Op:      o,
		Ins:     append([]*Vertex(nil), ins...),
		Shape:   outShape,
		Density: o.OutDensity(shapes, dens),
	}
	g.Vertices = append(g.Vertices, v)
	for _, in := range ins {
		in.Outs = append(in.Outs, v)
	}
	return v, nil
}

// MustApply is Apply for statically known-correct graph builders.
func (g *Graph) MustApply(o op.Op, ins ...*Vertex) *Vertex {
	v, err := g.Apply(o, ins...)
	if err != nil {
		panic(err)
	}
	return v
}

// ByName returns the input vertex with the given name, or nil.
func (g *Graph) ByName(name string) *Vertex { return g.byName[name] }

// Sources returns the source vertices.
func (g *Graph) Sources() []*Vertex {
	var out []*Vertex
	for _, v := range g.Vertices {
		if v.IsSource {
			out = append(out, v)
		}
	}
	return out
}

// Sinks returns the vertices with no consumers.
func (g *Graph) Sinks() []*Vertex {
	var out []*Vertex
	for _, v := range g.Vertices {
		if len(v.Outs) == 0 {
			out = append(out, v)
		}
	}
	return out
}

// IsTree reports whether the graph is tree-shaped in the paper's sense:
// every vertex has at most one out-edge, so no sub-computation is shared.
func (g *Graph) IsTree() bool {
	for _, v := range g.Vertices {
		if len(v.Outs) > 1 {
			return false
		}
	}
	return true
}

// NumOps returns the number of non-source vertices.
func (g *Graph) NumOps() int {
	n := 0
	for _, v := range g.Vertices {
		if !v.IsSource {
			n++
		}
	}
	return n
}

// Validate checks structural invariants: edge symmetry and that vertex
// IDs index the vertex slice (construction order ⇒ topological order).
func (g *Graph) Validate() error {
	for i, v := range g.Vertices {
		if v.ID != i {
			return fmt.Errorf("core: vertex %d has ID %d", i, v.ID)
		}
		for _, in := range v.Ins {
			if in.ID >= v.ID {
				return fmt.Errorf("core: vertex %d consumes later vertex %d", v.ID, in.ID)
			}
			found := 0
			for _, o := range in.Outs {
				if o == v {
					found++
				}
			}
			uses := 0
			for _, x := range v.Ins {
				if x == in {
					uses++
				}
			}
			if found != uses {
				return fmt.Errorf("core: edge bookkeeping broken between %d and %d", in.ID, v.ID)
			}
		}
	}
	return nil
}
