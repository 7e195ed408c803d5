package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"matopt/internal/obs"
)

// ErrInternal reports an inconsistency inside the optimizer itself — a
// recorded back-pointer that no longer applies, a frontier invariant
// violated, or an interning overflow. It indicates a bug in the search,
// not in the caller's computation, and replaces the panics earlier
// versions raised on these paths.
var ErrInternal = errors.New("core: internal optimizer inconsistency")

// internalf wraps ErrInternal with a formatted detail message.
func internalf(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ErrInternal}, args...)...)
}

// Stats is the per-run instrumentation a Session collects: how much of
// the search space each algorithm actually touched, and how long the run
// took. Counters cover whichever algorithm the session ran.
type Stats struct {
	// ClassesExpanded counts frontier equivalence classes built (one per
	// non-source vertex in Frontier) or DP tables built (TreeDP).
	ClassesExpanded int
	// EntriesPruned counts cost-table entries dropped by the beam limit
	// (Env.MaxClassEntries); 0 means the search was exact.
	EntriesPruned int
	// CandidatesEvaluated counts cost-model evaluations of an
	// implementation on one combination of delivered input formats. In
	// Frontier each round evaluates every implementation once per distinct
	// combination, before its walk, so the count is a function of the
	// graph and the environment.
	CandidatesEvaluated int64
	// WallSeconds is the wall time of the last algorithm run.
	WallSeconds float64
}

// Session is one optimization run's execution context: the cancellation
// context its algorithms poll, the environment they search over and the
// instrumentation the run fills in. A Session is not safe for concurrent
// use; create one per Optimize call.
type Session struct {
	ctx   context.Context
	env   *Env
	stats Stats
	tr    *obs.Tracer
	span  *obs.Span
}

// SessionOption configures a Session.
type SessionOption func(*Session)

// WithTracer attaches an obs tracer to the session: each algorithm run
// opens a span ("frontier", "treedp", "brute.enumerate") under parent,
// and the Frontier DP adds one "frontier.round" child per vertex
// expansion. A nil tracer (the default) keeps tracing disabled with no
// overhead; see DESIGN.md §11 for the span taxonomy.
func WithTracer(t *obs.Tracer, parent *obs.Span) SessionOption {
	return func(s *Session) { s.tr, s.span = t, parent }
}

// NewSession returns a session that optimizes under ctx: algorithms poll
// the context and abort with ErrTimeout (deadline) or the context's own
// error (cancellation) mid-search. A nil ctx means context.Background().
func NewSession(ctx context.Context, env *Env, opts ...SessionOption) *Session {
	if ctx == nil {
		ctx = context.Background()
	}
	s := &Session{ctx: ctx, env: env}
	for _, opt := range opts {
		opt(s)
	}
	return s
}

// Stats returns the instrumentation of the session's last run.
func (s *Session) Stats() Stats { return s.stats }

// ctxErr translates the session context's state into the optimizer's
// error vocabulary: an expired deadline becomes ErrTimeout (which also
// still matches context.DeadlineExceeded via errors.Is), an explicit
// cancellation surfaces as context.Canceled, and nil means keep going.
func (s *Session) ctxErr() error {
	err := s.ctx.Err()
	if err == nil {
		return nil
	}
	if errors.Is(err, context.DeadlineExceeded) {
		return fmt.Errorf("%w: %w", ErrTimeout, err)
	}
	return err
}

// Optimize computes the optimal annotation of g with the Frontier
// algorithm (Algorithm 4), whatever the graph's shape.
func (s *Session) Optimize(g *Graph) (*Annotation, error) {
	if err := g.Validate(); err != nil {
		return nil, err
	}
	return s.Frontier(g)
}

// finish stamps the run's wall time into the stats and the annotation.
func (s *Session) finish(ann *Annotation, start time.Time) {
	s.stats.WallSeconds = time.Since(start).Seconds()
	if ann != nil {
		ann.OptSeconds = s.stats.WallSeconds
	}
}
