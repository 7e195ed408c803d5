package matopt

import (
	"context"
	"errors"
	"sync"

	"matopt/internal/lru"
	"matopt/internal/plan"
)

// DefaultPlanCacheSize is the number of distinct computations an
// Optimizer's plan cache retains before evicting least-recently-used
// entries; override it with WithPlanCacheSize.
const DefaultPlanCacheSize = 128

// newPlanCache returns a thread-safe LRU of lowered physical plans keyed
// by the canonical fingerprint of (graph, environment), holding size
// plans (DefaultPlanCacheSize when size ≤ 0). Repeated Optimize calls on
// identical computations — the heavy-traffic serving case — hit the
// cache and skip the search and the lowering entirely. The lowered IR
// (which carries the annotation it came from) is engine-invariant —
// plan.Lower takes no engine kind or shard count — so one cached plan
// serves SequentialEngine and DistEngine runs at any shard count alike.
func newPlanCache(size int) *lru.Cache[string, *plan.Plan] {
	if size <= 0 {
		size = DefaultPlanCacheSize
	}
	return lru.New[string](int64(size), func(*plan.Plan) int64 { return 1 })
}

// flightGroup coalesces concurrent optimizations of the same plan-cache
// key: the first caller (the leader) runs the search, every concurrent
// caller with the same key (a waiter) blocks until the leader finishes
// and shares its lowered plan. This closes the plan
// cache's thundering-herd window — without it, N identical requests
// arriving before the first one populates the cache all run the full
// Frontier search.
type flightGroup struct {
	mu    sync.Mutex
	calls map[string]*flightCall
}

// flightCall is one in-flight optimization; done is closed when the
// leader's result fields are final.
type flightCall struct {
	done chan struct{}
	p    *plan.Plan
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{calls: make(map[string]*flightCall)}
}

// do runs fn once per key among concurrent callers. The leader's result
// is shared with every waiter; leader reports which role this caller
// played. A waiter whose own context dies stops waiting and returns the
// context's error. A leader abandoned by its context leaves waiters
// free to retry: its call slot is removed before done is closed, so a
// still-live waiter loops and either finds the cache populated (via the
// caller's re-lookup) or becomes the new leader.
func (g *flightGroup) do(ctx context.Context, key string, fn func() (*plan.Plan, error)) (p *plan.Plan, leader bool, err error) {
	for {
		g.mu.Lock()
		if c, ok := g.calls[key]; ok {
			g.mu.Unlock()
			select {
			case <-c.done:
				if abandonedErr(c.err) && ctx.Err() == nil {
					// The leader died of its own context or budget, not
					// ours — try again rather than surfacing a
					// stranger's cancellation.
					continue
				}
				return c.p, false, c.err
			case <-ctx.Done():
				return nil, false, waitErr(ctx)
			}
		}
		c := &flightCall{done: make(chan struct{})}
		g.calls[key] = c
		g.mu.Unlock()
		c.p, c.err = fn()
		g.mu.Lock()
		delete(g.calls, key)
		g.mu.Unlock()
		close(c.done)
		return c.p, true, c.err
	}
}

// abandonedErr reports whether a leader's error came from its own
// context or search budget rather than from the computation itself —
// the cases a waiter with a live context should not inherit.
func abandonedErr(err error) bool {
	return err != nil && (errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrTimeout))
}

// waitErr maps a waiter's dead context to the same error OptimizeCtx
// reports for its own search: ErrTimeout on an expired deadline, the
// context's error on cancellation.
func waitErr(ctx context.Context) error {
	if errors.Is(ctx.Err(), context.DeadlineExceeded) {
		return ErrTimeout
	}
	return ctx.Err()
}
