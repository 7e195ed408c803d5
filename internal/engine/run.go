package engine

import (
	"context"
	"fmt"
	"sync"

	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// RunPlan validates and executes a lowered physical plan on real data —
// the engine's one execution entry point. inputs maps source-vertex
// names to dense matrices, which are loaded in each source's declared
// format; every re-layout and compute node then runs through the
// operator table on the one-shard local Mover.
//
// The plan's free nodes ref-count relations by consumer: once a vertex's
// last consumer has executed, its relation is dropped, bounding peak
// memory on deep graphs, and the storage this run's compute and
// re-layout nodes drew for it goes back to the tensor free list for the
// next kernel to draw. The returned map therefore holds only the
// plan's retained vertices — the sinks, plus whatever plan.Lower was
// asked to keep — keyed by vertex ID; Collect or CollectAll turns them
// back into dense matrices. The context is checked before every scan
// and compute node, so a cancelled context aborts the run at the next
// vertex boundary with the context's error.
//
// The engine lowers nothing: whoever holds an annotation lowers it with
// the environment it was optimized in (plan.Lower) and passes the plan.
func (e *Engine) RunPlan(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*Relation, error) {
	return e.interpret(ctx, p, inputs, nil, nil)
}

// interpret is the engine's one node loop, shared by RunPlan and the
// adaptive executor. preload overrides scan nodes by vertex ID with
// already-materialized relations (how an adaptive run resumes from its
// intermediates without re-loading them); computed, when non-nil, sees
// every compute node's fresh relation and returns false to halt the run
// there, in which case interpret returns (nil, nil).
func (e *Engine) interpret(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense,
	preload map[int]*Relation, computed func(n *plan.Node, out *Relation) bool) (map[int]*Relation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	vals := make([]*Relation, len(p.Nodes))
	var st *Storage // nil when computed sees the relations: an adaptive run resumes from them
	if computed == nil {
		st = NewStorage()
	}
	for _, n := range p.Nodes {
		switch n.Kind {
		case plan.KindScan:
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: execution aborted before vertex %d: %w", n.Vertex, err)
			}
			if r, ok := preload[n.Vertex]; ok {
				vals[n.ID] = r
				continue
			}
			m, ok := inputs[n.Source]
			if !ok {
				return nil, fmt.Errorf("engine: no input matrix for source %q", n.Source)
			}
			if int64(m.Rows) != n.OutShape.Rows || int64(m.Cols) != n.OutShape.Cols {
				return nil, fmt.Errorf("engine: input %q is %dx%d, graph declares %v",
					n.Source, m.Rows, m.Cols, n.OutShape)
			}
			r, err := e.Load(m, n.OutFormat)
			if err != nil {
				return nil, fmt.Errorf("engine: loading %q: %w", n.Source, err)
			}
			vals[n.ID] = r
		case plan.KindRelayout:
			in := vals[n.Inputs[0]]
			r, err := e.Transform(in, n.OutFormat)
			if err != nil {
				return nil, fmt.Errorf("engine: transforming input %d of vertex %d: %w", n.Arg, n.Vertex, err)
			}
			if r == in {
				// A relayout to the format its input has hands the input
				// back; this node's free must not release what it does
				// not hold.
				r = &Relation{Format: in.Format, Shape: in.Shape, Parts: in.Parts}
			} else {
				st.Own(r)
			}
			vals[n.ID] = r
		case plan.KindCompute:
			if err := ctx.Err(); err != nil {
				return nil, fmt.Errorf("engine: execution aborted before vertex %d: %w", n.Vertex, err)
			}
			ins := make([]*Relation, len(n.Inputs))
			for j, in := range n.Inputs {
				ins[j] = vals[in]
			}
			r, err := e.produced(Compute(local{e}, n, ins))
			if err != nil {
				return nil, fmt.Errorf("engine: %w", err)
			}
			vals[n.ID] = r
			st.Own(r)
			if computed != nil && !computed(n, r) {
				return nil, nil
			}
		case plan.KindFree:
			st.Free(vals[n.Inputs[0]])
			vals[n.Inputs[0]] = nil
		}
	}
	out := make(map[int]*Relation, len(p.Retained))
	for _, vid := range p.Retained {
		out[vid] = vals[p.NodeOfVertex[vid]]
	}
	return out, nil
}

// Storage is the one ownership rule of both runtimes' recycling: the
// dense arrays of the relations a run produced and owns, counted by the
// relations holding each, so an array goes back to the tensor free list
// once, after its last holder is freed — an array an exchange delivered
// in process to another shard is held by every relation it landed in.
// Only relations Own was given are ever released: a scan shares the
// caller's matrix and is never owned, every operator writes fresh
// storage, and a runtime never frees what it hands back. Safe for
// concurrent use; a nil *Storage owns nothing.
type Storage struct {
	mu      sync.Mutex
	owned   map[*Relation]bool
	holders map[*float64]int // by the array's first element
}

// NewStorage returns an empty Storage for one run.
func NewStorage() *Storage {
	return &Storage{owned: make(map[*Relation]bool), holders: make(map[*float64]int)}
}

// Own records r as a relation the run produced and may recycle.
func (st *Storage) Own(r *Relation) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	st.owned[r] = true
	for _, p := range r.Parts {
		for _, t := range p {
			if t.Dense != nil && len(t.Dense.Data) > 0 {
				st.holders[&t.Dense.Data[0]]++
			}
		}
	}
}

// Free drops r, releasing the arrays no other owned relation still
// holds; a relation Own was not given is left alone. The caller
// guarantees nothing reads r any more.
func (st *Storage) Free(r *Relation) {
	if st == nil {
		return
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.owned[r] {
		return
	}
	delete(st.owned, r)
	for _, p := range r.Parts {
		for _, t := range p {
			if t.Dense == nil || len(t.Dense.Data) == 0 {
				continue
			}
			a := &t.Dense.Data[0]
			if st.holders[a]--; st.holders[a] == 0 {
				delete(st.holders, a)
				tensor.Release(t.Dense)
			}
		}
	}
}

// CollectAll assembles every relation RunPlan retained back into a
// dense matrix, keyed as RunPlan keyed them.
func (e *Engine) CollectAll(rels map[int]*Relation) (map[int]*tensor.Dense, error) {
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
