package core

import (
	"errors"
	"time"

	"matopt/internal/format"
)

// ErrInfeasible is returned when no type-correct annotation exists within
// the environment (for example, every implementation is memory-infeasible
// on the given cluster).
var ErrInfeasible = errors.New("core: no type-correct annotation exists")

// ErrNotTree is returned by TreeDP on graphs with shared sub-computations.
var ErrNotTree = errors.New("core: graph is not tree-shaped; use Frontier")

// treeEntry is one F(v, ρ) table cell with the back-pointers needed to
// reconstruct the optimal annotation.
type treeEntry struct {
	cost float64
	Decision
	pins []format.Format // per argument: the child's table format
}

// childChoice is the cheapest way to obtain format pout from a child:
// its own optimal sub-annotation ending in pin, plus one transformation.
type childChoice struct {
	cost float64
	pin  format.Format
	edge EdgeChoice
}

// TreeDP runs the tree dynamic program with a fresh uncancellable
// session; see Session.TreeDP.
func TreeDP(g *Graph, env *Env) (*Annotation, error) {
	return NewSession(nil, env).TreeDP(g)
}

// TreeDP computes the optimal annotation of a tree-shaped compute graph
// with the Felsenstein-style dynamic program of Algorithm 3, in time
// O(n·|P|·|I|·|V|). The session context is polled per vertex and per
// implementation, so a cancelled or expired context aborts mid-search.
func (s *Session) TreeDP(g *Graph) (ann *Annotation, err error) {
	if !g.IsTree() {
		return nil, ErrNotTree
	}
	start := time.Now()
	tspan := s.tr.Start(s.span, "treedp")
	defer func() {
		s.finish(ann, start)
		tspan.SetInt("tables", int64(s.stats.ClassesExpanded)).
			SetInt("candidates", s.stats.CandidatesEvaluated).
			End()
	}()
	env := s.env
	cache := make(transCache)
	tables := make([]map[format.Format]*treeEntry, len(g.Vertices))

	for _, v := range g.Vertices { // construction order is topological
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		table := make(map[format.Format]*treeEntry)
		if v.IsSource {
			table[v.SrcFormat] = &treeEntry{}
			tables[v.ID] = table
			continue
		}
		s.stats.ClassesExpanded++
		// The cheapest way to hand each argument to this vertex in any
		// given format: min over the child's table and a transformation.
		best := make([]map[format.Format]childChoice, len(v.Ins))
		for j, in := range v.Ins {
			best[j] = make(map[format.Format]childChoice)
			for pin, e := range tables[in.ID] {
				for _, to := range env.transOptions(cache, in, pin) {
					cand := e.cost + to.cost
					if cur, ok := best[j][to.pout]; !ok || cand < cur.cost {
						best[j][to.pout] = childChoice{cost: cand, pin: pin, edge: EdgeChoice{Trans: to.tr, Cost: to.cost}}
					}
				}
			}
			if len(best[j]) == 0 {
				return nil, ErrInfeasible
			}
		}
		// Equation (1): minimize over implementations and delivered
		// input formats.
		pouts := make([]format.Format, len(v.Ins))
		for _, im := range env.Impls[v.Op.Kind] {
			if s.ctx.Err() != nil {
				return nil, s.ctxErr()
			}
			enumerateCombos(best, 0, pouts, func() {
				s.stats.CandidatesEvaluated++
				outF, implCost, ok := env.applyImpl(v, im, pouts)
				if !ok {
					return
				}
				total := implCost
				for j := range pouts {
					total += best[j][pouts[j]].cost
				}
				if cur, ok := table[outF]; !ok || total < cur.cost {
					pins := make([]format.Format, len(pouts))
					edges := make([]EdgeChoice, len(pouts))
					for j, p := range pouts {
						pins[j] = best[j][p].pin
						edges[j] = best[j][p].edge
					}
					table[outF] = &treeEntry{cost: total, pins: pins,
						Decision: Decision{Impl: im, Format: outF, Cost: implCost, Edges: edges}}
				}
			})
		}
		if len(table) == 0 {
			return nil, ErrInfeasible
		}
		tables[v.ID] = table
	}

	ann = NewAnnotation(g)
	for _, sink := range g.Sinks() {
		var bestF format.Format
		bestCost := -1.0
		for f, e := range tables[sink.ID] {
			if bestCost < 0 || e.cost < bestCost {
				bestF, bestCost = f, e.cost
			}
		}
		if bestCost < 0 {
			return nil, ErrInfeasible
		}
		if err := backtrackTree(tables, sink, bestF, ann); err != nil {
			return nil, err
		}
	}
	return ann, nil
}

// enumerateCombos walks the cross product of the per-argument format
// domains, filling pouts and invoking fn for every combination.
func enumerateCombos(best []map[format.Format]childChoice, j int, pouts []format.Format, fn func()) {
	if j == len(best) {
		fn()
		return
	}
	for f := range best[j] {
		pouts[j] = f
		enumerateCombos(best, j+1, pouts, fn)
	}
}

// backtrackTree labels the annotation along the optimal sub-plan that
// leaves vertex v in format f.
func backtrackTree(tables []map[format.Format]*treeEntry, v *Vertex, f format.Format, ann *Annotation) error {
	if v.IsSource {
		return nil
	}
	e := tables[v.ID][f]
	if e == nil {
		return internalf("backtracking reached vertex %d with unrecorded format %v", v.ID, f)
	}
	ann.Decide(v, e.Decision)
	for j, in := range v.Ins {
		if err := backtrackTree(tables, in, e.pins[j], ann); err != nil {
			return err
		}
	}
	return nil
}
