package engine

import (
	"context"
	"fmt"

	"matopt/internal/core"
	"matopt/internal/plan"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// MeasuredDensity returns the relation's true non-zero fraction from its
// materialized payloads.
func (r *Relation) MeasuredDensity() float64 {
	var nnz int64
	for _, p := range r.Parts {
		for _, t := range p {
			switch {
			case t.Dense != nil:
				for _, v := range t.Dense.Data {
					if v != 0 {
						nnz++
					}
				}
			case t.CSR != nil:
				nnz += int64(t.CSR.NNZ())
			case t.IsVal && t.Val != 0:
				nnz++
			}
		}
	}
	return float64(nnz) / float64(r.Shape.Elems())
}

// DensityCorrection records one place the adaptive executor found the
// optimizer's density estimate off by more than the threshold.
type DensityCorrection struct {
	Vertex    int
	Estimated float64
	Measured  float64
	RelErr    float64
}

// AdaptiveResult is the outcome of RunAdaptive.
type AdaptiveResult struct {
	Relations   map[int]*Relation
	Reoptimized int
	Corrections []DensityCorrection
}

// RunAdaptive implements the re-optimization scheme §7 sketches as
// future work: execute the optimal plan vertex by vertex, measure the
// true density of every intermediate, and when the estimate's relative
// error (Sommer's measure, 1.0 = perfect) exceeds threshold — the paper
// suggests 1.2 — halt, re-optimize the remaining computation with the
// measured densities substituted in, and continue under the new plan.
func (e *Engine) RunAdaptive(g *core.Graph, env *core.Env, inputs map[string]*tensor.Dense, threshold float64) (*AdaptiveResult, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("engine: relative-error threshold %v must be ≥ 1", threshold)
	}
	res := &AdaptiveResult{Relations: make(map[int]*Relation)}
	measured := make(map[int]float64) // original vertex → true density of its result
	for {
		sub, idmap, err := remainderGraph(g, res.Relations, measured)
		if err != nil {
			return nil, err
		}
		if sub.NumOps() == 0 {
			return res, nil
		}
		ann, err := core.Optimize(sub, env)
		if err != nil {
			return nil, fmt.Errorf("engine: adaptive re-optimization: %w", err)
		}
		p, err := plan.Lower(sub, env, ann)
		if err != nil {
			return nil, err
		}
		// back maps sub vertex IDs to original ones. Already-computed
		// intermediates re-enter the sub-plan as sources: preload their
		// scans with the materialized relations.
		back := make(map[int]int, len(idmap))
		preload := make(map[int]*Relation)
		for orig, nv := range idmap {
			back[nv.ID] = orig
			if r, ok := res.Relations[orig]; ok {
				preload[nv.ID] = r
			}
		}
		// Run the sub-plan through the engine's node loop, publishing each
		// computed relation under its ORIGINAL vertex ID, until the plan
		// finishes or a density estimate drifts beyond threshold. res holds
		// every published relation, and a run with a computed hook owns no
		// storage, so releasing a value recycles nothing a re-optimization
		// could want to resume from.
		drifted := false
		_, err = e.interpret(context.Background(), p, inputs, preload, func(n *plan.Node, out *Relation) bool {
			orig := back[n.Vertex]
			res.Relations[orig] = out
			est := sub.Vertices[n.Vertex].Density
			// Record the truth for any re-optimization.
			truth := out.MeasuredDensity()
			measured[orig] = truth
			if re := sparse.RelativeError(est, truth); re > threshold {
				res.Corrections = append(res.Corrections, DensityCorrection{
					Vertex: orig, Estimated: est, Measured: truth, RelErr: re,
				})
				drifted = true
			}
			return !drifted
		})
		if err != nil {
			return nil, err
		}
		if !drifted {
			return res, nil
		}
		res.Reoptimized++
	}
}

// remainderGraph rebuilds the not-yet-computed portion of g: computed
// vertices whose results are still needed become sources carrying their
// materialized format and measured density. idmap maps original vertex
// IDs to the new graph's vertices.
func remainderGraph(g *core.Graph, done map[int]*Relation, measured map[int]float64) (*core.Graph, map[int]*core.Vertex, error) {
	sub := core.NewGraph()
	idmap := make(map[int]*core.Vertex)
	for _, v := range g.Vertices {
		if r, ok := done[v.ID]; ok {
			// Only re-declare it if some remaining vertex consumes it.
			needed := false
			for _, out := range v.Outs {
				if _, did := done[out.ID]; !did {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
			idmap[v.ID] = sub.Input(fmt.Sprintf("done-%d", v.ID), v.Shape, measured[v.ID], r.Format)
			continue
		}
		if v.IsSource {
			idmap[v.ID] = sub.Input(v.Name, v.Shape, v.Density, v.SrcFormat)
			continue
		}
		ins := make([]*core.Vertex, len(v.Ins))
		for j, in := range v.Ins {
			m, ok := idmap[in.ID]
			if !ok {
				return nil, nil, fmt.Errorf("engine: vertex %d consumed before being scheduled", in.ID)
			}
			ins[j] = m
		}
		nv, err := sub.Apply(v.Op, ins...)
		if err != nil {
			return nil, nil, fmt.Errorf("engine: rebuilding vertex %d: %w", v.ID, err)
		}
		idmap[v.ID] = nv
	}
	return sub, idmap, nil
}
