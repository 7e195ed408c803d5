package engine

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// RunPlan validates and executes a lowered physical plan on real data —
// the engine's one execution entry point — and returns the dense value
// of every retained vertex (the sinks, plus whatever plan.Lower was
// asked to keep), keyed by vertex ID. inputs maps source-vertex names to
// dense matrices, which are loaded in each source's declared format;
// every step then runs through RunStep on the one-shard local Mover, in
// the plan's step order.
//
// Values are released by the plan's Consumers: once a vertex's last
// consumer has executed, its relation is dropped, bounding peak memory
// on deep graphs, and the storage this run's steps drew for it goes back
// to the tensor free list for the next kernel to draw. The retained
// relations go the same way once Outputs has collected them. The context
// is checked before every step, so a cancelled context aborts the run at
// the next vertex boundary with the context's error.
//
// The engine lowers nothing: whoever holds an annotation lowers it with
// the environment it was optimized in (plan.Lower) and passes the plan.
func (e *Engine) RunPlan(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	return e.interpret(ctx, p, inputs, nil)
}

// interpret is the engine's one step loop, shared by RunPlan and the
// adaptive executor. halt, when non-nil, sees every compute step's fresh
// relation once the step's spent inputs are released, and returns true
// to stop the run there: interpret then hands back, keyed by vertex ID,
// every computed value still live — a retained vertex, or one a later
// step reads — instead of the retained ones.
func (e *Engine) interpret(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense,
	halt func(n *plan.Node, out *Relation) bool) (map[int]*tensor.Dense, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	steps, refs := p.Steps(), p.Consumers()
	vals := make(map[int]*Relation, len(steps)) // the live values
	kept := p.Retained
	st := NewStorage()
	for v, s := range steps {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("engine: execution aborted before vertex %d: %w", v, err)
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
		for _, d := range s.Deps {
			if refs[d]--; refs[d] == 0 {
				st.Free(vals[d])
				delete(vals, d)
			}
		}
		if halt != nil && s.Node.Kind == plan.KindCompute && halt(s.Node, r) {
			kept = nil
			for u, r := range vals {
				if steps[u].Node.Kind == plan.KindCompute {
					kept = append(kept, u)
				} else {
					st.Free(r) // a live scan: the next round scans its input again
				}
			}
			break
		}
	}
	outs, err := Outputs(st, kept, vals)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return outs, nil
}

// Outputs collects the dense value of each vertex in ids from rels and
// frees its relation into st: the one place either runtime hands back
// what a run kept. It runs once the run's last step is done, when every
// other value st owned has been freed, so st must own nothing once ids
// are freed; a vertex without a relation, or a Storage still owning
// something, is a broken run (core.ErrInternal).
func Outputs(st *Storage, ids []int, rels map[int]*Relation) (map[int]*tensor.Dense, error) {
	outs := make(map[int]*tensor.Dense, len(ids))
	for _, id := range ids {
		r := rels[id]
		if r == nil {
			return nil, fmt.Errorf("vertex %d has no relation after the run: %w", id, core.ErrInternal)
		}
		m, err := Collect(r)
		if err != nil {
			return nil, fmt.Errorf("collecting vertex %d: %w", id, err)
		}
		outs[id] = m
		st.Free(r) // collected into m, which shares none of it
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if arrays := len(st.floats) + len(st.ints); len(st.owned) > 0 || arrays > 0 {
		return nil, fmt.Errorf("storage still owns %d relations and %d arrays after the run: %w",
			len(st.owned), arrays, core.ErrInternal)
	}
	return outs, nil
}

// RunStep runs one plan step on m and is the only code either runtime
// runs a step with. A source step looks up its input matrix, checks its
// shape against the plan and scans it in: a single relation shares the
// caller's matrix and st never owns it, every other format is storage
// of its own, which st owns. A compute step runs each fused re-layout on
// the argument relations ins, then the operator; st owns the output, and
// owns and then frees each re-layout output that is not its input, so
// once the step returns, failed or not, only what the output holds of
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
		if n.OutFormat.Kind != format.Single {
			st.Own(r)
		}
		return r, nil
	}
	args := slices.Clone(ins)
	defer func() {
		for j, a := range args {
			if a != ins[j] {
				st.Free(a)
			}
		}
	}()
	for j, rn := range s.Relayouts {
		if rn == nil {
			continue
		}
		a, err := Relayout(m, n.Vertex, j, ins[j], rn.OutFormat, maxTupleBytes)
		if err != nil {
			return nil, fmt.Errorf("transforming input %d of vertex %d: %w", j, n.Vertex, err)
		}
		if a != ins[j] {
			st.Own(a)
		}
		args[j] = a
	}
	out, err := Compute(m, n, args)
	if err != nil {
		return nil, err
	}
	st.Own(out)
	return out, nil
}

// Storage is the one ownership rule of both runtimes' recycling: the
// arrays of the relations a run produced and owns — a dense tuple's
// Data, a CSR tuple's Val on the float free list and its RowPtr and
// ColIdx on the index free list — counted by the relations holding each,
// so an array goes back to the tensor free lists once, after its last
// holder is freed: an array an exchange delivered in process to another
// shard is held by every relation it landed in. RunStep owns what a step
// produced, a runtime frees a value when its plan.Consumers count
// reaches zero, and Outputs frees what the run kept once it has
// collected it, so a finished run's Storage owns nothing. Only relations
// Own was given are ever released: a single scan shares the caller's
// matrix and is never owned, and every operator writes fresh storage.
// Safe for concurrent use.
type Storage struct {
	mu     sync.Mutex
	owned  map[*Relation]bool
	floats map[*float64]int // holders of each float array, by its first element
	ints   map[*int]int     // holders of each index array, by its first element
}

// NewStorage returns an empty Storage for one run.
func NewStorage() *Storage {
	return &Storage{owned: make(map[*Relation]bool), floats: make(map[*float64]int), ints: make(map[*int]int)}
}

// Own records r as a relation the run produced and may recycle.
func (st *Storage) Own(r *Relation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.owned[r] = true
	for _, p := range r.Parts {
		for _, t := range p {
			if t.Dense != nil {
				hold(st.floats, t.Dense.Data)
			}
			if c := t.CSR; c != nil {
				hold(st.floats, c.Val)
				hold(st.ints, c.RowPtr)
				hold(st.ints, c.ColIdx)
			}
		}
	}
}

// Free drops r, releasing the arrays no other owned relation still
// holds; a relation Own was not given is left alone. The caller
// guarantees nothing reads r any more.
func (st *Storage) Free(r *Relation) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if !st.owned[r] {
		return
	}
	delete(st.owned, r)
	for _, p := range r.Parts {
		for _, t := range p {
			if t.Dense != nil {
				drop(st.floats, &t.Dense.Data, tensor.ReleaseFloats)
			}
			if c := t.CSR; c != nil {
				drop(st.floats, &c.Val, tensor.ReleaseFloats)
				drop(st.ints, &c.RowPtr, tensor.ReleaseInts)
				drop(st.ints, &c.ColIdx, tensor.ReleaseInts)
			}
		}
	}
}

// hold counts one more holder of the array d begins; an empty d is no
// array.
func hold[T any](holders map[*T]int, d []T) {
	if len(d) > 0 {
		holders[&d[0]]++
	}
}

// drop counts one holder of *d's array less and, when that was its
// last, releases the array and clears *d, so that a later reader panics
// instead of reading reused storage.
func drop[T any](holders map[*T]int, d *[]T, release func([]T)) {
	if len(*d) == 0 {
		return
	}
	a := &(*d)[0]
	if holders[a]--; holders[a] > 0 {
		return
	}
	delete(holders, a)
	release(*d)
	*d = nil
}
