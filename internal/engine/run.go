package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// RunPlan validates and executes a lowered physical plan on real data —
// the engine's one execution entry point. inputs maps source-vertex
// names to dense matrices, which are loaded in each source's declared
// format; every step then runs through RunStep on the one-shard local
// Mover, in the plan's step order.
//
// Values are released by the plan's Consumers: once a vertex's last
// consumer has executed, its relation is dropped, bounding peak memory
// on deep graphs, and the storage this run's steps drew for it goes back
// to the tensor free list for the next kernel to draw. The returned map
// therefore holds only the plan's retained vertices — the sinks, plus
// whatever plan.Lower was asked to keep — keyed by vertex ID; Collect or
// CollectAll turns them back into dense matrices. The context is checked
// before every step, so a cancelled context aborts the run at the next
// vertex boundary with the context's error.
//
// The engine lowers nothing: whoever holds an annotation lowers it with
// the environment it was optimized in (plan.Lower) and passes the plan.
func (e *Engine) RunPlan(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*Relation, error) {
	return e.interpret(ctx, p, inputs, nil, nil)
}

// interpret is the engine's one step loop, shared by RunPlan and the
// adaptive executor. preload overrides source steps by vertex ID with
// already-materialized relations (how an adaptive run resumes from its
// intermediates without re-loading them); computed, when non-nil, sees
// every compute step's fresh relation and returns false to halt the run
// there, in which case interpret returns (nil, nil).
func (e *Engine) interpret(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense,
	preload map[int]*Relation, computed func(n *plan.Node, out *Relation) bool) (map[int]*Relation, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	refs := p.Consumers()
	vals := make([]*Relation, len(refs))
	var st *Storage // nil when computed sees the relations: an adaptive run resumes from them
	if computed == nil {
		st = NewStorage()
	}
	for v, s := range p.Steps() {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: execution aborted before vertex %d: %w", v, err)
		}
		if r, ok := preload[v]; ok {
			vals[v] = r
			continue
		}
		ins := make([]*Relation, len(s.Deps))
		for j, d := range s.Deps {
			ins[j] = vals[d]
		}
		r, err := RunStep(local{e}, st, s, ins, inputs, e.Cluster.MaxTupleBytes)
		if err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
		vals[v] = r
		if computed != nil && s.Node.Kind == plan.KindCompute && !computed(s.Node, r) {
			return nil, nil
		}
		for _, d := range s.Deps {
			if refs[d]--; refs[d] == 0 {
				st.Free(vals[d])
				vals[d] = nil
			}
		}
	}
	out := make(map[int]*Relation, len(p.Retained))
	for _, v := range p.Retained {
		out[v] = vals[v]
	}
	return out, nil
}

// RunStep runs one plan step on m and is the only code either runtime
// runs a step with. A source step looks up its input matrix, checks its
// shape against the plan and scans it in (the relation shares the
// caller's matrix and st never owns it). A compute step runs each fused
// re-layout on the argument relations ins, then the operator; st owns
// the output, and owns and then frees each re-layout output that is not
// its input, so once the step returns only what the output holds of
// them is left.
func RunStep(m Mover, st *Storage, s plan.Step, ins []*Relation, inputs map[string]*tensor.Dense, maxTupleBytes int64) (*Relation, error) {
	n := s.Node
	if n.Kind == plan.KindScan {
		mat, ok := inputs[n.Source]
		if !ok {
			return nil, fmt.Errorf("no input matrix for source %q", n.Source)
		}
		if int64(mat.Rows) != n.OutShape.Rows || int64(mat.Cols) != n.OutShape.Cols {
			return nil, fmt.Errorf("input %q is %dx%d, graph declares %v", n.Source, mat.Rows, mat.Cols, n.OutShape)
		}
		r, err := Scan(m, n.Vertex, mat, n.OutFormat, maxTupleBytes)
		if err != nil {
			return nil, fmt.Errorf("loading %q: %w", n.Source, err)
		}
		return r, nil
	}
	args := slices.Clone(ins)
	for j, rn := range s.Relayouts {
		if rn == nil {
			continue
		}
		var err error
		if args[j], err = Relayout(m, n.Vertex, j, ins[j], rn.OutFormat, maxTupleBytes); err != nil {
			return nil, fmt.Errorf("transforming input %d of vertex %d: %w", j, n.Vertex, err)
		}
		if args[j] != ins[j] {
			st.Own(args[j])
		}
	}
	out, err := Compute(m, n, args)
	if err != nil {
		return nil, err
	}
	st.Own(out)
	for j, a := range args {
		if a != ins[j] {
			st.Free(a)
		}
	}
	return out, nil
}

// Storage is the one ownership rule of both runtimes' recycling: the
// dense arrays of the relations a run produced and owns, counted by the
// relations holding each, so an array goes back to the tensor free list
// once, after its last holder is freed — an array an exchange delivered
// in process to another shard is held by every relation it landed in.
// RunStep owns what a step produced, and a runtime frees a value when
// its plan.Consumers count reaches zero. Only relations Own was given are
// ever released: a scan shares the caller's matrix and is never owned,
// every operator writes fresh storage, and a runtime never frees what it
// hands back. Safe for concurrent use; a nil *Storage owns nothing.
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
