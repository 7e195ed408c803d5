package plan

import (
	"fmt"

	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/impl"
)

// Lower turns an optimizer annotation into a physical plan: one scan
// node per source, one re-layout node per non-identity edge
// transformation (emitted in argument order, so predicted costs fold in
// the same order Simulate always summed them), and one compute node per
// non-source vertex. Every cost and feature set is re-derived fresh from
// the environment's model — the annotation's cost maps are not
// consulted, so hand-built annotations with empty maps lower correctly.
//
// keep lists additional vertex IDs to retain on top of the sinks: their
// values are never released (Consumers), so callers can collect chosen
// intermediates after executing the plan.
//
// Lowering fails with the paper's ⊥ ("Fail") when a chosen
// transformation or implementation rejects its inputs on this cluster —
// the same feasibility checks core.Annotation.Verify applies.
func Lower(g *core.Graph, env *core.Env, ann *core.Annotation, keep ...int) (*Plan, error) {
	if g == nil || ann == nil {
		return nil, fmt.Errorf("plan: nil graph or annotation")
	}
	if ann.Graph != g {
		return nil, fmt.Errorf("plan: annotation was produced for a different graph")
	}
	p := &Plan{
		Graph:        g,
		Ann:          ann,
		NodeOfVertex: make([]int, len(g.Vertices)),
		OptSeconds:   ann.OptSeconds,
	}
	retain := make([]bool, len(g.Vertices))
	for _, v := range g.Sinks() {
		retain[v.ID] = true
	}
	for _, id := range keep {
		if id < 0 || id >= len(retain) {
			return nil, fmt.Errorf("plan: keep vertex %d out of range", id)
		}
		retain[id] = true
	}

	push := func(n *Node) *Node {
		n.ID = len(p.Nodes)
		p.Nodes = append(p.Nodes, n)
		return n
	}
	for _, v := range g.Vertices {
		if v.IsSource {
			if f, ok := ann.VertexFormat[v.ID]; ok && f != v.SrcFormat {
				return nil, fmt.Errorf("plan: source %d annotated %v, graph declares %v",
					v.ID, f, v.SrcFormat)
			}
			n := push(&Node{
				Kind: KindScan, Vertex: v.ID, Name: "load", Source: v.Name,
				OutFormat: v.SrcFormat, OutShape: v.Shape, OutDensity: v.Density,
				Strategy: "scan",
			})
			p.NodeOfVertex[v.ID] = n.ID
			continue
		}
		im := ann.VertexImpl[v.ID]
		if im == nil {
			return nil, fmt.Errorf("plan: vertex %d has no implementation", v.ID)
		}
		ins := make([]impl.Input, len(v.Ins))
		inputNodes := make([]int, len(v.Ins))
		inFormats := make([]format.Format, len(v.Ins))
		for j, in := range v.Ins {
			tr := ann.EdgeTrans[core.EdgeKey{To: v.ID, Arg: j}]
			if tr == nil {
				return nil, fmt.Errorf("plan: edge into vertex %d arg %d has no transformation", v.ID, j)
			}
			src := p.Nodes[p.NodeOfVertex[in.ID]]
			tout, ok := tr.Apply(in.Shape, in.Density, src.OutFormat, env.Cluster)
			if !ok {
				return nil, fmt.Errorf("plan: transformation %s fails on vertex %d arg %d (Fail)",
					tr.Name, v.ID, j)
			}
			inputNodes[j] = src.ID
			if !tr.Identity() {
				rn := push(&Node{
					Kind: KindRelayout, Vertex: v.ID, Arg: j, Name: tr.Name,
					Inputs: []int{src.ID}, InFormats: []format.Format{src.OutFormat},
					OutFormat: tout.Format, OutShape: in.Shape, OutDensity: in.Density,
					Cost: tr.Cost(env.Model, tout), Features: tout.Features,
					PeakWorkerBytes: tout.PeakWorkerBytes, Strategy: "re-layout",
				})
				inputNodes[j] = rn.ID
			}
			inFormats[j] = tout.Format
			ins[j] = impl.Input{Shape: in.Shape, Density: in.Density, Format: tout.Format}
		}
		iout, ok := im.Apply(v.Op, ins, v.Shape, v.Density, env.Cluster)
		if !ok {
			return nil, fmt.Errorf("plan: implementation %s fails on vertex %d (Fail)", im.Name, v.ID)
		}
		if want, ok := ann.VertexFormat[v.ID]; ok && iout.Format != want {
			return nil, fmt.Errorf("plan: vertex %d derives %v, annotation says %v",
				v.ID, iout.Format, want)
		}
		cn := push(&Node{
			Kind: KindCompute, Vertex: v.ID, Name: im.Name, Op: v.Op,
			Inputs: inputNodes, InFormats: inFormats,
			OutFormat: iout.Format, OutShape: v.Shape, OutDensity: v.Density,
			Cost: im.Cost(env.Model, iout), Features: iout.Features,
			PeakWorkerBytes: iout.PeakWorkerBytes, Strategy: im.Strategy(),
		})
		p.NodeOfVertex[v.ID] = cn.ID
	}
	for id, keep := range retain {
		if keep {
			p.Retained = append(p.Retained, id)
		}
	}
	return p, nil
}
