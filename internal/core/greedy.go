package core

import (
	"fmt"
	"time"

	"matopt/internal/format"
)

// GreedyAnnotate builds a type-correct annotation from a per-vertex
// format policy without global optimization: each vertex in topological
// order is bound to the cheapest (implementation, transformations)
// combination that produces the format requested by want, given the
// formats its inputs already have. Vertices absent from want take the
// locally cheapest output format. This is how the baseline plans (the
// hand-written experts, the all-tile heuristic, and the SystemDS-style
// local optimizer) are expressed; a vertex with no feasible combination
// makes the whole plan Fail, reproducing the paper's crashed baselines.
func GreedyAnnotate(g *Graph, env *Env, want map[int]format.Format) (*Annotation, error) {
	start := time.Now()
	cache := make(transCache)
	ann := NewAnnotation(g)
	for _, v := range g.Vertices {
		if v.IsSource {
			continue
		}
		var best *Decision
		var bestCost float64
		target, constrained := want[v.ID]
		pinOf := func(in *Vertex) format.Format { return ann.VertexFormat[in.ID] }
		env.eachDelivery(cache, v, pinOf, func(pouts []format.Format, edges []EdgeChoice, trCost float64) {
			for _, im := range env.Impls[v.Op.Kind] {
				outF, implCost, ok := env.applyImpl(v, im, pouts)
				if !ok {
					continue
				}
				if constrained && outF != target {
					continue
				}
				if total := trCost + implCost; best == nil || total < bestCost {
					bestCost = total
					best = &Decision{Impl: im, Format: outF, Cost: implCost, Edges: append([]EdgeChoice(nil), edges...)}
				}
			}
		})
		if best == nil {
			return nil, fmt.Errorf("%w: vertex %d (%v) has no feasible plan for target %v",
				ErrInfeasible, v.ID, v.Op, formatOrAny(target, constrained))
		}
		ann.Decide(v, *best)
	}
	ann.OptSeconds = time.Since(start).Seconds()
	return ann, nil
}

func formatOrAny(f format.Format, constrained bool) string {
	if !constrained {
		return "any"
	}
	return f.String()
}
