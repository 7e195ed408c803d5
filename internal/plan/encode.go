package plan

import (
	"encoding/json"
	"fmt"

	"matopt/internal/core"
	"matopt/internal/impl"
	"matopt/internal/trans"
)

// encodeVersion is the version of the plan document Encode writes: the
// node listing alone, without the free nodes version 4 listed.
// minEncodeVersion is the oldest Decode reads; versions 1 to 4 are
// refused.
const (
	encodeVersion    = 5
	minEncodeVersion = 5
)

// planDTO is the serialized physical plan: a fingerprint binding it to
// one (graph, environment) pair, and the node listing. The listing is
// the decision set — a compute node names its vertex's implementation, a
// relayout node the transformation of input edge (vertex, arg), an edge
// with no relayout node is the identity — and everything else in it is
// derived from those by Lower, written out for the reader of a dump and
// so that Decode can tell an edited payload from a lowered one.
type planDTO struct {
	Version     int       `json:"version"`
	Fingerprint string    `json:"fingerprint"`
	Nodes       []nodeDTO `json:"nodes"`
}

// nodeDTO is one serialized physical operator.
type nodeDTO struct {
	ID       int     `json:"id"`
	Kind     string  `json:"kind"`
	Vertex   int     `json:"vertex"`
	Arg      int     `json:"arg,omitempty"`
	Name     string  `json:"name"`
	Source   string  `json:"source,omitempty"`
	Inputs   []int   `json:"inputs,omitempty"`
	Format   string  `json:"format,omitempty"`
	Strategy string  `json:"strategy"`
	Cost     float64 `json:"cost"`
}

// Encode serializes a lowered plan: its node listing under the
// fingerprint of (graph, env), so Decode can refuse to replay it against
// a different computation or cluster.
func Encode(p *Plan, env *core.Env) ([]byte, error) {
	if p == nil || p.Graph == nil {
		return nil, fmt.Errorf("plan: cannot encode a plan without its graph")
	}
	dto := planDTO{
		Version:     encodeVersion,
		Fingerprint: core.Fingerprint(p.Graph, env),
		Nodes:       make([]nodeDTO, len(p.Nodes)),
	}
	for i, n := range p.Nodes {
		dto.Nodes[i] = nodeDTO{
			ID: n.ID, Kind: n.Kind.String(), Vertex: n.Vertex, Arg: n.Arg,
			Name: n.Name, Source: n.Source, Inputs: n.Inputs,
			Format: n.OutFormat.String(), Strategy: n.Strategy, Cost: n.Cost,
		}
	}
	return json.MarshalIndent(dto, "", "  ")
}

// Decode reconstructs a physical plan for graph g under env from Encode
// output. It verifies the fingerprint, reads the decisions out of the
// node listing, lowers them — Lower is the only place a format, cost or
// feature is derived — and requires the listing to be the one that
// lowering produces, every implementation's output format to lie in
// env.Formats, and the completed annotation to pass Verify. A payload
// made for a different graph or environment, naming an unknown or
// infeasible operator, or edited since it was lowered is rejected with
// an error wrapping ErrInvalidPlan.
func Decode(g *core.Graph, env *core.Env, data []byte) (*Plan, error) {
	var dto planDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("plan: decoding: %w", err)
	}
	if dto.Version < minEncodeVersion || dto.Version > encodeVersion {
		return nil, bad("unsupported plan version %d", dto.Version)
	}
	if fp := core.Fingerprint(g, env); dto.Fingerprint != fp {
		return nil, bad("plan was lowered for a different computation or environment")
	}
	ann, err := readDecisions(g, dto.Nodes)
	if err != nil {
		return nil, err
	}
	p, err := Lower(g, env, ann)
	if err != nil {
		return nil, bad("%v", err)
	}
	if len(p.Nodes) != len(dto.Nodes) {
		return nil, bad("payload lists %d nodes, lowering produced %d", len(dto.Nodes), len(p.Nodes))
	}
	for i, n := range p.Nodes {
		d := dto.Nodes[i]
		if d.ID != n.ID || d.Kind != n.Kind.String() || d.Vertex != n.Vertex ||
			d.Arg != n.Arg || d.Name != n.Name {
			return nil, bad("node %d in the payload (%s %q on vertex %d) does not match the lowered plan",
				i, d.Kind, d.Name, d.Vertex)
		}
		if d.Format != n.OutFormat.String() {
			return nil, bad("node %d format %q does not match lowered %v", i, d.Format, n.OutFormat)
		}
	}
	// Complete the annotation from the lowered nodes.
	for _, v := range g.Vertices {
		if v.IsSource {
			continue
		}
		n := p.Nodes[p.NodeOfVertex[v.ID]]
		if !env.HasFormat(n.OutFormat) {
			return nil, bad("vertex %d: %s produces %v, outside the environment's formats", v.ID, n.Name, n.OutFormat)
		}
		edges := make([]core.EdgeChoice, len(v.Ins))
		for j, in := range n.Inputs {
			edges[j].Trans = ann.EdgeTrans[core.EdgeKey{To: v.ID, Arg: j}]
			if r := p.Nodes[in]; r.Kind == KindRelayout {
				edges[j].Cost = r.Cost
			}
		}
		ann.Decide(v, core.Decision{Impl: ann.VertexImpl[v.ID], Format: n.OutFormat, Cost: n.Cost, Edges: edges})
	}
	if err := ann.Verify(env); err != nil {
		return nil, bad("%v", err)
	}
	return p, nil
}

// readDecisions reads the decision set out of a node listing into an
// annotation holding implementations and transformations only: exactly
// one compute node per non-source vertex, at most one relayout node per
// input edge, every name a registered operator. Scan nodes decide
// nothing; Decode's comparison with the lowered listing covers them.
func readDecisions(g *core.Graph, nodes []nodeDTO) (*core.Annotation, error) {
	ann := core.NewAnnotation(g)
	for _, d := range nodes {
		compute, relayout := d.Kind == KindCompute.String(), d.Kind == KindRelayout.String()
		if !compute && !relayout {
			continue
		}
		if d.Vertex < 0 || d.Vertex >= len(g.Vertices) || g.Vertices[d.Vertex].IsSource {
			return nil, bad("%s %q is on vertex %d, which is not a computation of the graph", d.Kind, d.Name, d.Vertex)
		}
		if compute {
			if ann.VertexImpl[d.Vertex] != nil {
				return nil, bad("vertex %d has a second compute node, %q", d.Vertex, d.Name)
			}
			if ann.VertexImpl[d.Vertex] = impl.ByName(d.Name); ann.VertexImpl[d.Vertex] == nil {
				return nil, bad("vertex %d names unknown implementation %q", d.Vertex, d.Name)
			}
			continue
		}
		ek := core.EdgeKey{To: d.Vertex, Arg: d.Arg}
		if d.Arg < 0 || d.Arg >= len(g.Vertices[d.Vertex].Ins) {
			return nil, bad("re-layout %q is on argument %d of vertex %d, which has no such argument", d.Name, d.Arg, d.Vertex)
		}
		if ann.EdgeTrans[ek] != nil {
			return nil, bad("argument %d of vertex %d has a second re-layout node, %q", d.Arg, d.Vertex, d.Name)
		}
		if ann.EdgeTrans[ek] = trans.ByName(d.Name); ann.EdgeTrans[ek] == nil {
			return nil, bad("argument %d of vertex %d names unknown transformation %q", d.Arg, d.Vertex, d.Name)
		}
	}
	for _, v := range g.Vertices {
		if !v.IsSource && ann.VertexImpl[v.ID] == nil {
			return nil, bad("vertex %d has no compute node", v.ID)
		}
		for j := range v.Ins {
			if ek := (core.EdgeKey{To: v.ID, Arg: j}); ann.EdgeTrans[ek] == nil {
				ann.EdgeTrans[ek] = trans.IdentityTransform
			}
		}
	}
	return ann, nil
}
