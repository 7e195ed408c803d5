package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/trans"
)

// planDTO is the wire form of an annotation: implementations and
// transformations by their stable names, formats by their textual form,
// keyed by vertex / edge. The compute graph itself is not serialized —
// a plan is only meaningful against the graph it annotates, which the
// caller re-builds (graph builders are deterministic).
type planDTO struct {
	Vertices []vertexDTO `json:"vertices"`
	Edges    []edgeDTO   `json:"edges"`
}

type vertexDTO struct {
	ID     int    `json:"id"`
	Impl   string `json:"impl,omitempty"` // empty for sources
	Format string `json:"format"`
}

type edgeDTO struct {
	To        int    `json:"to"`
	Arg       int    `json:"arg"`
	Transform string `json:"transform"`
}

// EncodePlan serializes an annotation to JSON for caching; decode it
// against the same graph with DecodePlan.
func EncodePlan(a *Annotation) ([]byte, error) {
	dto := planDTO{}
	for _, v := range a.Graph.Vertices {
		vd := vertexDTO{ID: v.ID, Format: a.VertexFormat[v.ID].String()}
		if !v.IsSource {
			im := a.VertexImpl[v.ID]
			if im == nil {
				return nil, fmt.Errorf("core: vertex %d has no implementation", v.ID)
			}
			vd.Impl = im.Name
		}
		dto.Vertices = append(dto.Vertices, vd)
		for j := range v.Ins {
			tr := a.EdgeTrans[EdgeKey{To: v.ID, Arg: j}]
			if tr == nil {
				return nil, fmt.Errorf("core: edge into %d arg %d has no transformation", v.ID, j)
			}
			dto.Edges = append(dto.Edges, edgeDTO{To: v.ID, Arg: j, Transform: tr.Name})
		}
	}
	return json.MarshalIndent(dto, "", "  ")
}

// DecodePlan reconstructs an annotation for graph g from EncodePlan
// output, re-deriving the per-vertex and per-edge costs under env and
// verifying type-correctness. It fails if the plan does not fit the
// graph (wrong vertex count, unknown implementation, mismatched shapes)
// or is no longer feasible under env's cluster.
func DecodePlan(g *Graph, env *Env, data []byte) (*Annotation, error) {
	var dto planDTO
	if err := json.Unmarshal(data, &dto); err != nil {
		return nil, fmt.Errorf("core: decoding plan: %w", err)
	}
	if len(dto.Vertices) != len(g.Vertices) {
		return nil, fmt.Errorf("core: plan has %d vertices, graph has %d", len(dto.Vertices), len(g.Vertices))
	}
	ann := newAnnotation(g)
	for _, vd := range dto.Vertices {
		if vd.ID < 0 || vd.ID >= len(g.Vertices) {
			return nil, fmt.Errorf("core: plan references vertex %d", vd.ID)
		}
		f, err := format.Parse(vd.Format)
		if err != nil {
			return nil, err
		}
		ann.VertexFormat[vd.ID] = f
		v := g.Vertices[vd.ID]
		if v.IsSource {
			if vd.Impl != "" {
				return nil, fmt.Errorf("core: source vertex %d carries an implementation", vd.ID)
			}
			continue
		}
		im := impl.ByName(vd.Impl)
		if im == nil {
			return nil, fmt.Errorf("core: unknown implementation %q", vd.Impl)
		}
		ann.VertexImpl[vd.ID] = im
	}
	for _, ed := range dto.Edges {
		tr := trans.ByName(ed.Transform)
		if tr == nil {
			return nil, fmt.Errorf("core: unknown transformation %q", ed.Transform)
		}
		ann.EdgeTrans[EdgeKey{To: ed.To, Arg: ed.Arg}] = tr
	}
	// Re-derive costs and check type-correctness in one pass.
	for _, v := range g.Vertices {
		if v.IsSource {
			continue
		}
		pouts := make([]format.Format, len(v.Ins))
		for j, in := range v.Ins {
			ek := EdgeKey{To: v.ID, Arg: j}
			tr := ann.EdgeTrans[ek]
			if tr == nil {
				return nil, fmt.Errorf("core: plan misses edge into %d arg %d", v.ID, j)
			}
			tout, ok := tr.Apply(in.Shape, in.Density, ann.VertexFormat[in.ID], env.Cluster)
			if !ok {
				return nil, fmt.Errorf("core: transformation %s infeasible on edge into %d arg %d", tr.Name, v.ID, j)
			}
			pouts[j] = tout.Format
			ann.EdgeCost[ek] = tr.Cost(env.Model, tout)
		}
		outF, implCost, ok := env.applyImpl(v, ann.VertexImpl[v.ID], pouts)
		if !ok {
			return nil, fmt.Errorf("core: implementation %s infeasible on vertex %d", ann.VertexImpl[v.ID].Name, v.ID)
		}
		if outF != ann.VertexFormat[v.ID] {
			return nil, fmt.Errorf("core: vertex %d derives %v, plan says %v", v.ID, outF, ann.VertexFormat[v.ID])
		}
		ann.VertexCost[v.ID] = implCost
	}
	if err := ann.Verify(env); err != nil {
		return nil, err
	}
	return ann, nil
}

// Fingerprint returns a canonical digest of everything the optimizer's
// answer depends on: the graph's structure (vertex ops, argument wiring,
// shapes, densities, input names and formats) and the environment (the
// format universe, the cluster profile, the cost-model coefficients and
// the beam limit). Two Optimize calls with equal fingerprints are
// guaranteed the same optimal plan, which is what makes the plan cache
// in the root package sound. Densities are part of the key because the
// adaptive executor re-optimizes remainder graphs with measured
// densities substituted in — those must not collide with the original
// estimate's plan.
func Fingerprint(g *Graph, env *Env) string {
	h := sha256.New()
	fmt.Fprintf(h, "cluster|%+v\n", env.Cluster)
	fmt.Fprintf(h, "beam|%d\n", env.MaxClassEntries)
	for _, f := range env.Formats {
		fmt.Fprintf(h, "fmt|%v\n", f)
	}
	if env.Model != nil {
		fmt.Fprintf(h, "model|%+v\n", env.Model.Default)
		keys := make([]string, 0, len(env.Model.PerKey))
		for k := range env.Model.PerKey {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(h, "model|%s|%+v\n", k, env.Model.PerKey[k])
		}
	}
	for _, v := range g.Vertices {
		if v.IsSource {
			fmt.Fprintf(h, "src|%d|%s|%v|%v|%.17g\n", v.ID, v.Name, v.Shape, v.SrcFormat, v.Density)
			continue
		}
		fmt.Fprintf(h, "op|%d|%d|%.17g|%v|%.17g|", v.ID, v.Op.Kind, v.Op.Scalar, v.Shape, v.Density)
		for _, in := range v.Ins {
			fmt.Fprintf(h, "%d,", in.ID)
		}
		fmt.Fprintln(h)
	}
	return hex.EncodeToString(h.Sum(nil))
}
