package core

import (
	"fmt"
	"strings"

	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/trans"
)

// EdgeKey identifies an input edge of a vertex by (consumer, argument
// position); argument position rather than producer ID because the same
// producer may feed several arguments.
type EdgeKey struct {
	To  int
	Arg int
}

// Annotation is an annotated compute graph G′ (§4.2): an atomic
// computation implementation per non-source vertex, a physical matrix
// transformation per edge, and the induced physical format per vertex.
type Annotation struct {
	Graph        *Graph
	VertexImpl   map[int]*impl.Impl
	VertexFormat map[int]format.Format
	EdgeTrans    map[EdgeKey]*trans.Transform
	VertexCost   map[int]float64
	EdgeCost     map[EdgeKey]float64
	// OptSeconds is the wall time the optimizer itself spent.
	OptSeconds float64
}

// NewAnnotation returns the annotation of g that holds no decision yet —
// only the sources' formats, which the graph gives — to be filled one
// vertex at a time with Decide.
func NewAnnotation(g *Graph) *Annotation {
	a := &Annotation{
		Graph:        g,
		VertexImpl:   make(map[int]*impl.Impl),
		VertexFormat: make(map[int]format.Format),
		EdgeTrans:    make(map[EdgeKey]*trans.Transform),
		VertexCost:   make(map[int]float64),
		EdgeCost:     make(map[EdgeKey]float64),
	}
	for _, v := range g.Vertices {
		if v.IsSource {
			a.VertexFormat[v.ID] = v.SrcFormat
		}
	}
	return a
}

// EdgeChoice is the decision on one input edge: the transformation that
// re-lays-out the argument and its predicted cost.
type EdgeChoice struct {
	Trans *trans.Transform
	Cost  float64
}

// Decision is everything G′ holds for one non-source vertex: its
// implementation, the output format and cost that induces, and one
// EdgeChoice per argument.
type Decision struct {
	Impl   *impl.Impl
	Format format.Format
	Cost   float64
	Edges  []EdgeChoice
}

// Decide records d as the decision for vertex v. Every search and the
// plan decoder write through it.
func (a *Annotation) Decide(v *Vertex, d Decision) {
	a.VertexImpl[v.ID] = d.Impl
	a.VertexFormat[v.ID] = d.Format
	a.VertexCost[v.ID] = d.Cost
	for j, e := range d.Edges {
		ek := EdgeKey{To: v.ID, Arg: j}
		a.EdgeTrans[ek] = e.Trans
		a.EdgeCost[ek] = e.Cost
	}
}

// Total returns Cost(G′) = Σ_v v.c + Σ_e e.c. Terms are summed in
// topological vertex/edge order, not map order, so the result is
// bit-identical across runs of the same plan (the plan-hash goldens
// record its bits).
func (a *Annotation) Total() float64 {
	var t float64
	for _, v := range a.Graph.Vertices {
		t += a.VertexCost[v.ID]
		for j := range v.Ins {
			t += a.EdgeCost[EdgeKey{To: v.ID, Arg: j}]
		}
	}
	return t
}

// Verify re-derives every vertex's physical format from the annotation
// and checks type-correctness (§4.2): each implementation must implement
// the vertex's atomic computation and accept its (transformed) input
// formats, and the derived formats must match the recorded ones.
func (a *Annotation) Verify(env *Env) error {
	for _, v := range a.Graph.Vertices {
		if v.IsSource {
			if a.VertexFormat[v.ID] != v.SrcFormat {
				return fmt.Errorf("source %s: annotated format %v differs from given %v",
					v.Name, a.VertexFormat[v.ID], v.SrcFormat)
			}
			continue
		}
		im := a.VertexImpl[v.ID]
		if im == nil {
			return fmt.Errorf("vertex %d: no implementation", v.ID)
		}
		if im.Op != v.Op.Kind {
			return fmt.Errorf("vertex %d: impl %s implements %v, vertex computes %v",
				v.ID, im.Name, im.Op, v.Op.Kind)
		}
		ins := make([]impl.Input, len(v.Ins))
		for j, in := range v.Ins {
			tr := a.EdgeTrans[EdgeKey{To: v.ID, Arg: j}]
			if tr == nil {
				return fmt.Errorf("vertex %d arg %d: no transformation", v.ID, j)
			}
			tout, ok := tr.Apply(in.Shape, in.Density, a.VertexFormat[in.ID], env.Cluster)
			if !ok {
				return fmt.Errorf("vertex %d arg %d: transformation %s is ⊥ on %v",
					v.ID, j, tr.Name, a.VertexFormat[in.ID])
			}
			ins[j] = impl.Input{Shape: in.Shape, Density: in.Density, Format: tout.Format}
		}
		out, ok := im.Apply(v.Op, ins, v.Shape, v.Density, env.Cluster)
		if !ok {
			return fmt.Errorf("vertex %d: impl %s is ⊥ on transformed inputs", v.ID, im.Name)
		}
		if out.Format != a.VertexFormat[v.ID] {
			return fmt.Errorf("vertex %d: derived format %v differs from annotated %v",
				v.ID, out.Format, a.VertexFormat[v.ID])
		}
	}
	return nil
}

// Describe renders the annotation as a human-readable plan listing, in
// topological order.
func (a *Annotation) Describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "plan: %d vertices, predicted %.2fs\n", len(a.Graph.Vertices), a.Total())
	for _, v := range a.Graph.Vertices {
		if v.IsSource {
			fmt.Fprintf(&b, "  in   %-12s %v @ %v\n", v.Name, v.Shape, a.VertexFormat[v.ID])
			continue
		}
		var args []string
		for j, in := range v.Ins {
			tr := a.EdgeTrans[EdgeKey{To: v.ID, Arg: j}]
			arg := fmt.Sprintf("v%d", in.ID)
			if tr != nil && !tr.Identity() {
				arg += fmt.Sprintf("▷%v", tr.Target())
			}
			args = append(args, arg)
		}
		im := "?"
		if a.VertexImpl[v.ID] != nil {
			im = a.VertexImpl[v.ID].Name
		}
		fmt.Fprintf(&b, "  v%-3d %-10s %-28s (%s) → %v [%.3fs]\n",
			v.ID, v.Op.String(), im, strings.Join(args, ", "),
			a.VertexFormat[v.ID], a.VertexCost[v.ID])
	}
	for _, v := range a.Graph.Vertices {
		for j := range v.Ins {
			if e := (EdgeKey{To: v.ID, Arg: j}); a.EdgeCost[e] > 0 {
				fmt.Fprintf(&b, "  edge →v%d#%d %-20s [%.3fs]\n", e.To, e.Arg, a.EdgeTrans[e].Name, a.EdgeCost[e])
			}
		}
	}
	return b.String()
}
