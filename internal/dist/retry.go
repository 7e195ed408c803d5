package dist

import (
	"errors"
	"fmt"
	"time"

	"matopt/internal/engine"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// Typed failure surface of the dist runtime. Transient failures —
// a shard dying mid-task, an exchange that never completes — are
// retryable; everything else (type errors, missing inputs, internal
// inconsistencies wrapping core.ErrInternal, and the run context's own
// cancellation) aborts the run immediately.
var (
	// ErrShardFailed reports that a shard's task for a vertex died
	// mid-execution (in-process: an injected crash; on a real network
	// backend: a worker failure).
	ErrShardFailed = errors.New("dist: shard task failed")
	// ErrExchangeTimeout reports that an exchange did not complete:
	// messages were lost, or the wire failed or stalled past the
	// transport's I/O deadline.
	ErrExchangeTimeout = errors.New("dist: exchange timed out")
	// ErrRetriesExhausted reports that a vertex kept failing past the
	// runtime's retry budget. Every occurrence is wrapped in a
	// RetriesExhaustedError carrying the failing vertex, the attempt
	// count and the root-cause fault.
	ErrRetriesExhausted = errors.New("dist: vertex retries exhausted")
)

// RetriesExhaustedError is the actionable form of ErrRetriesExhausted:
// which vertex gave up, after how many attempts, and the last attempt's
// root-cause error. errors.Is matches both
// ErrRetriesExhausted and anything the cause wraps (e.g.
// ErrShardFailed), so existing callers keep working; Report and the
// serve layer surface the fields instead of a bare sentinel.
type RetriesExhaustedError struct {
	// Vertex is the failing vertex's ID.
	Vertex int
	// Attempts counts the executions taken.
	Attempts int
	// Cause is the last attempt's error.
	Cause error
}

// Error renders the vertex, attempt count and root cause.
func (e *RetriesExhaustedError) Error() string {
	return fmt.Sprintf("%v: vertex %d failed %d times: %v",
		ErrRetriesExhausted, e.Vertex, e.Attempts, e.Cause)
}

// Unwrap exposes both the sentinel and the root cause to errors.Is/As.
func (e *RetriesExhaustedError) Unwrap() []error { return []error{ErrRetriesExhausted, e.Cause} }

// retryable reports whether an attempt error is transient: only shard
// failures and exchange timeouts are worth re-executing a vertex for.
func retryable(err error) bool {
	return errors.Is(err, ErrShardFailed) || errors.Is(err, ErrExchangeTimeout)
}

// runStep executes one plan step (a vertex's producing node with its
// fused re-layouts) with recovery: each attempt runs inline on the
// step's goroutine, and transient failures (ErrShardFailed,
// ErrExchangeTimeout) are retried at once, up to the runtime's retry
// budget; deterministic inputs make every re-execution produce the same
// bits as a fault-free run. Every attempt reads the original input
// relations, so a retry re-derives the fused re-layouts from them rather
// than from a half-transformed attempt state.
func (r *run) runStep(s plan.Step, ins []*engine.Relation, inputs map[string]*tensor.Dense) (*engine.Relation, error) {
	start := time.Now()
	v := s.Node.Vertex
	vspan := r.tr.Start(r.span, "vertex").
		SetInt("id", int64(v)).SetStr("impl", s.Node.Name).
		SetInt("node", int64(s.Node.ID)).SetStr("strategy", s.Node.Strategy)
	defer func() {
		r.vsec.Observe(time.Since(start).Seconds())
		vspan.End()
	}()
	for attempt := 0; ; attempt++ {
		aspan := r.tr.Start(vspan, "attempt").SetInt("n", int64(attempt))
		x := &exec{run: r, attempt: attempt, span: aspan}
		rel, err := x.execStep(s, ins, inputs)
		aspan.End()
		if err == nil {
			vspan.SetInt("attempts", int64(attempt+1))
			return rel, nil
		}
		if cerr := r.ctx.Err(); cerr != nil {
			// The run was cancelled; report the context's cause rather
			// than whatever the teardown surfaced as.
			return nil, fmt.Errorf("dist: vertex %d aborted: %w", v, cerr)
		}
		if !retryable(err) {
			return nil, err
		}
		if attempt >= *r.cfg.MaxRetries {
			return nil, &RetriesExhaustedError{Vertex: v, Attempts: attempt + 1, Cause: err}
		}
		r.recordRetry(v)
	}
}

// recordRetry counts one recomputation of a vertex, what the Report's
// Retries and RetriesByVertex are summed from.
func (r *run) recordRetry(vertex int) {
	r.mu.Lock()
	r.retries[vertex]++
	r.mu.Unlock()
}
