package engine

import (
	"context"
	"fmt"
	"maps"

	"matopt/internal/core"
	"matopt/internal/format"
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
	Outputs     map[int]*tensor.Dense // the dense value of every sink, keyed by vertex ID
	Reoptimized int
	Corrections []DensityCorrection
}

// measurement is what a computed value was found to be: the format it
// was produced in and its true density.
type measurement struct {
	format  format.Format
	density float64
}

// RunAdaptive implements the re-optimization scheme §7 sketches as
// future work: execute the optimal plan vertex by vertex, measure the
// true density of every intermediate, and when the estimate's relative
// error (Sommer's measure, 1.0 = perfect) exceeds threshold — the paper
// suggests 1.2 — halt, re-optimize the remaining computation with the
// measured densities substituted in, and continue under the new plan.
//
// Each round is one run of the engine's step loop, which recycles like
// RunPlan. A halted round hands back the dense value of everything it
// computed that is still live; the next round takes each as an input of
// its own name (remainderGraph) and scans it in again, and a carried
// value goes back to the free list once no remaining vertex reads it.
func (e *Engine) RunAdaptive(g *core.Graph, env *core.Env, inputs map[string]*tensor.Dense, threshold float64) (*AdaptiveResult, error) {
	if threshold < 1 {
		return nil, fmt.Errorf("engine: relative-error threshold %v must be ≥ 1", threshold)
	}
	res := &AdaptiveResult{Outputs: make(map[int]*tensor.Dense)}
	measured := make(map[int]measurement)  // original vertex → what its computed value measured
	carried := make(map[int]*tensor.Dense) // original vertex → its value, computed in an earlier round
	defer func() {
		for _, m := range carried {
			tensor.Release(m)
		}
	}()
	for {
		sub, idmap, err := remainderGraph(g, measured)
		if err != nil {
			return nil, err
		}
		for orig, m := range carried {
			if _, read := idmap[orig]; !read {
				tensor.Release(m)
				delete(carried, orig)
			}
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
		// back maps sub vertex IDs to original ones. A value an earlier
		// round computed enters under the name its source was declared
		// with.
		back := make(map[int]int, len(idmap))
		in := maps.Clone(inputs)
		for orig, nv := range idmap {
			back[nv.ID] = orig
			if m, ok := carried[orig]; ok {
				in[nv.Name] = m
			}
		}
		// Run the sub-plan, recording each computed value's measurement
		// under its ORIGINAL vertex ID, until the plan finishes or a
		// density estimate drifts beyond threshold.
		drifted := false
		outs, err := e.interpret(context.Background(), p, in, func(n *plan.Node, out *Relation) bool {
			orig := back[n.Vertex]
			est := sub.Vertices[n.Vertex].Density
			truth := out.MeasuredDensity()
			measured[orig] = measurement{format: out.Format, density: truth}
			if re := sparse.RelativeError(est, truth); re > threshold {
				res.Corrections = append(res.Corrections, DensityCorrection{
					Vertex: orig, Estimated: est, Measured: truth, RelErr: re,
				})
				drifted = true
			}
			return drifted
		})
		if err != nil {
			return nil, err
		}
		for id, m := range outs {
			if orig := back[id]; len(g.Vertices[orig].Outs) == 0 {
				res.Outputs[orig] = m
			} else {
				carried[orig] = m
			}
		}
		if !drifted {
			return res, nil
		}
		res.Reoptimized++
	}
}

// remainderGraph rebuilds the not-yet-computed portion of g: measured
// vertices are done, and those a remaining vertex still reads become
// sources declared in the format and density they were measured in,
// named done-<id> — with a prime appended while that is the name of
// one of g's inputs, so a caller's input never collides with it. idmap
// maps original vertex IDs to the new graph's vertices.
func remainderGraph(g *core.Graph, measured map[int]measurement) (*core.Graph, map[int]*core.Vertex, error) {
	sub := core.NewGraph()
	idmap := make(map[int]*core.Vertex)
	taken := make(map[string]bool)
	for _, v := range g.Vertices {
		if v.IsSource {
			taken[v.Name] = true
		}
	}
	for _, v := range g.Vertices {
		if m, ok := measured[v.ID]; ok {
			// Only re-declare it if some remaining vertex consumes it.
			needed := false
			for _, out := range v.Outs {
				if _, did := measured[out.ID]; !did {
					needed = true
					break
				}
			}
			if !needed {
				continue
			}
			name := fmt.Sprintf("done-%d", v.ID)
			for taken[name] {
				name += "'"
			}
			idmap[v.ID] = sub.Input(name, v.Shape, m.density, m.format)
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
