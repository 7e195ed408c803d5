package core

import (
	"context"
	"errors"
	"time"

	"matopt/internal/format"
)

// ErrTimeout is returned when the search's deadline expires before it
// completes (the paper's "Fail" at 30 minutes in Figure 13).
var ErrTimeout = errors.New("core: search exceeded its time budget")

// Brute runs the exhaustive search with a fresh session bounded by
// budget; see Session.Brute.
func Brute(g *Graph, env *Env, budget time.Duration) (*Annotation, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	return NewSession(ctx, env).Brute(g)
}

// Brute exhaustively enumerates type-correct annotations (Algorithm 2):
// for every vertex in topological order it tries every implementation and
// every feasible transformation of each argument, recursing on the rest
// of the graph with branch-and-bound pruning against the best complete
// annotation found so far. Complexity is exponential in the number of
// vertices; the session context bounds the wall time — an expired
// deadline returns ErrTimeout, a cancelled parent context its own error.
func (s *Session) Brute(g *Graph) (ann *Annotation, err error) {
	start := time.Now()
	bspan := s.tr.Start(s.span, "brute.enumerate")
	defer func() {
		s.finish(ann, start)
		bspan.SetInt("candidates", s.stats.CandidatesEvaluated).End()
	}()
	env := s.env
	cache := make(transCache)

	var order []*Vertex
	curFormat := make([]format.Format, len(g.Vertices))
	for _, v := range g.Vertices {
		if v.IsSource {
			curFormat[v.ID] = v.SrcFormat
		} else {
			order = append(order, v)
		}
	}

	choices := make([]Decision, len(order)) // the branch being explored
	var bestChoices []Decision
	bestCost := -1.0
	aborted := false
	steps := 0

	var rec func(k int, costSoFar float64)
	rec = func(k int, costSoFar float64) {
		if aborted {
			return
		}
		steps++
		// Poll the session context rather than the clock, so a cancelled
		// parent aborts promptly; every 64 steps keeps a 1 ms deadline
		// honest without measurable overhead on the search itself.
		if steps&63 == 0 && s.ctx.Err() != nil {
			aborted = true
			return
		}
		if bestCost >= 0 && costSoFar >= bestCost {
			return // branch and bound
		}
		if k == len(order) {
			bestCost = costSoFar
			bestChoices = append(bestChoices[:0], choices...)
			return
		}
		v := order[k]
		pinOf := func(in *Vertex) format.Format { return curFormat[in.ID] }
		env.eachDelivery(cache, v, pinOf, func(pouts []format.Format, edges []EdgeChoice, trCost float64) {
			if aborted {
				return
			}
			for _, im := range env.Impls[v.Op.Kind] {
				s.stats.CandidatesEvaluated++
				outF, implCost, ok := env.applyImpl(v, im, pouts)
				if !ok {
					continue
				}
				choices[k] = Decision{Impl: im, Format: outF, Cost: implCost, Edges: append([]EdgeChoice(nil), edges...)}
				saved := curFormat[v.ID]
				curFormat[v.ID] = outF
				rec(k+1, costSoFar+trCost+implCost)
				curFormat[v.ID] = saved
			}
		})
	}
	rec(0, 0)

	if aborted {
		return nil, s.ctxErr()
	}
	if bestCost < 0 {
		return nil, ErrInfeasible
	}
	ann = NewAnnotation(g)
	for k, v := range order {
		ann.Decide(v, bestChoices[k])
	}
	return ann, nil
}
