package engine

import (
	"context"
	"fmt"

	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// Run executes an annotated compute graph end to end on real data; see
// RunCtx.
func (e *Engine) Run(ann *core.Annotation, inputs map[string]*tensor.Dense) (map[int]*Relation, error) {
	return e.RunCtx(context.Background(), ann, inputs)
}

// RunCtx lowers an annotated compute graph to the shared physical-plan
// IR and executes it end to end on real data: inputs maps source-vertex
// names to dense matrices, which are loaded in each source's declared
// format; every re-layout and compute node then runs through the
// operator table.
//
// The plan's free nodes ref-count relations by consumer: once a vertex's
// last consumer has executed, its relation is dropped, bounding peak
// memory on deep graphs. The returned map therefore holds only the
// sinks' relations; callers that need a specific intermediate should use
// RunKeep / RunKeepCtx. The context is checked between nodes, so a
// cancelled context aborts the run at the next vertex boundary with the
// context's error.
func (e *Engine) RunCtx(ctx context.Context, ann *core.Annotation, inputs map[string]*tensor.Dense) (map[int]*Relation, error) {
	return e.RunKeepCtx(ctx, ann, inputs, nil)
}

// RunKeep is RunKeepCtx without cancellation.
func (e *Engine) RunKeep(ann *core.Annotation, inputs map[string]*tensor.Dense, keep []int) (map[int]*Relation, error) {
	return e.RunKeepCtx(context.Background(), ann, inputs, keep)
}

// RunKeepCtx is RunCtx that additionally retains the relations of the
// vertex IDs listed in keep (on top of the sinks, which are always
// retained), so callers can Collect chosen intermediates after the run.
func (e *Engine) RunKeepCtx(ctx context.Context, ann *core.Annotation, inputs map[string]*tensor.Dense, keep []int) (map[int]*Relation, error) {
	env := core.NewEnv(e.Cluster, format.All())
	p, err := plan.LowerKeep(ann.Graph, env, ann, keep)
	if err != nil {
		return nil, err
	}
	return e.RunPlanCtx(ctx, p, inputs)
}

// RunPlan is RunPlanCtx without cancellation.
func (e *Engine) RunPlan(p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*Relation, error) {
	return e.RunPlanCtx(context.Background(), p, inputs)
}

// RunPlanCtx validates and executes an already-lowered physical plan,
// returning the retained vertices' relations keyed by vertex ID. This is
// the engine's single execution entry point: Run/RunCtx/RunKeep lower
// and delegate here.
func (e *Engine) RunPlanCtx(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*Relation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return plan.Execute[*Relation](p, &planInterp{e: e, ctx: ctx, inputs: inputs})
}

// planInterp is the sequential engine's implementation of the shared
// plan.Interpreter interface over materialized relations: each node
// runs the operator table's Scan, Relayout or Compute (through Load and
// Transform for the first two) on the one-shard local Mover.
type planInterp struct {
	e      *Engine
	ctx    context.Context
	inputs map[string]*tensor.Dense
	// preload overrides scan nodes by vertex ID with already-materialized
	// relations; the adaptive executor uses it to resume from
	// intermediate results without re-loading them.
	preload map[int]*Relation
}

func (pi *planInterp) Scan(n *plan.Node) (*Relation, error) {
	if err := pi.ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: execution aborted before vertex %d: %w", n.Vertex, err)
	}
	if r, ok := pi.preload[n.Vertex]; ok {
		return r, nil
	}
	m, ok := pi.inputs[n.Source]
	if !ok {
		return nil, fmt.Errorf("engine: no input matrix for source %q", n.Source)
	}
	if int64(m.Rows) != n.OutShape.Rows || int64(m.Cols) != n.OutShape.Cols {
		return nil, fmt.Errorf("engine: input %q is %dx%d, graph declares %v",
			n.Source, m.Rows, m.Cols, n.OutShape)
	}
	r, err := pi.e.Load(m, n.OutFormat)
	if err != nil {
		return nil, fmt.Errorf("engine: loading %q: %w", n.Source, err)
	}
	return r, nil
}

func (pi *planInterp) Relayout(n *plan.Node, in *Relation) (*Relation, error) {
	out, err := pi.e.Transform(in, n.OutFormat)
	if err != nil {
		return nil, fmt.Errorf("engine: transforming input %d of vertex %d: %w", n.Arg, n.Vertex, err)
	}
	return out, nil
}

func (pi *planInterp) Compute(n *plan.Node, ins []*Relation) (*Relation, error) {
	if err := pi.ctx.Err(); err != nil {
		return nil, fmt.Errorf("engine: execution aborted before vertex %d: %w", n.Vertex, err)
	}
	out, err := pi.e.produced(Compute(local{pi.e}, n, ins))
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return out, nil
}

func (pi *planInterp) Free(*plan.Node, *Relation) error { return nil }

// RunCollect is Run followed by Collect on every sink, keyed by vertex ID.
func (e *Engine) RunCollect(ann *core.Annotation, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	return e.RunCollectCtx(context.Background(), ann, inputs)
}

// RunCollectCtx is RunCtx followed by Collect on every sink.
func (e *Engine) RunCollectCtx(ctx context.Context, ann *core.Annotation, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	rels, err := e.RunCtx(ctx, ann, inputs)
	if err != nil {
		return nil, err
	}
	return e.collectAll(rels)
}

// RunPlanCollectCtx is RunPlanCtx followed by Collect on every retained
// vertex — the plan-native equivalent of RunCollectCtx, used by callers
// that already hold a lowered plan (the public Executor, the CLI).
func (e *Engine) RunPlanCollectCtx(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	rels, err := e.RunPlanCtx(ctx, p, inputs)
	if err != nil {
		return nil, err
	}
	return e.collectAll(rels)
}

// collectAll assembles every retained relation back into a dense matrix.
func (e *Engine) collectAll(rels map[int]*Relation) (map[int]*tensor.Dense, error) {
	out := make(map[int]*tensor.Dense, len(rels))
	for id, r := range rels {
		m, err := e.Collect(r)
		if err != nil {
			return nil, fmt.Errorf("engine: collecting sink %d: %w", id, err)
		}
		out[id] = m
	}
	return out, nil
}
