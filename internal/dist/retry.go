package dist

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"matopt/internal/engine"
	"matopt/internal/obs"
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
	// ErrExchangeTimeout reports that an exchange did not complete in
	// time — messages were lost or a link stalled past the runtime's
	// exchange timeout.
	ErrExchangeTimeout = errors.New("dist: exchange timed out")
	// ErrRetriesExhausted reports that a vertex kept failing past the
	// runtime's retry budget or per-vertex deadline. Every occurrence is
	// wrapped in a RetriesExhaustedError carrying the failing vertex,
	// the attempt count and the root-cause fault.
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
	// Deadline is the per-vertex recovery deadline that expired, zero
	// when the retry budget (not the deadline) was exhausted.
	Deadline time.Duration
	// Cause is the last attempt's error.
	Cause error
}

// Error renders the vertex, attempt count and root cause.
func (e *RetriesExhaustedError) Error() string {
	if e.Deadline > 0 {
		return fmt.Sprintf("%v: vertex %d exceeded its %v recovery deadline after %d attempts: %v",
			ErrRetriesExhausted, e.Vertex, e.Deadline, e.Attempts, e.Cause)
	}
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

// runGroup executes one recovery group (a vertex's fused plan nodes)
// with recovery: transient failures (ErrShardFailed,
// ErrExchangeTimeout) are retried with capped, jittered exponential
// backoff up to the runtime's retry budget and per-vertex deadline;
// deterministic inputs make every re-execution produce the same bits as
// a fault-free run. The input snapshot is re-copied per attempt so a
// retry re-derives the fused re-layouts from the original relations
// rather than a half-transformed attempt state. An attempt that leaves a
// goroutine behind which may still read ins — a speculative loser, or
// the producers of an exchange that timed out — sets stray.
func (r *run) runGroup(gr *planGroup, ins []*engine.Relation, inputs map[string]*tensor.Dense, stray *atomic.Bool) (*engine.Relation, error) {
	start := time.Now()
	vspan := r.tr.Start(r.span, "vertex").
		SetInt("id", int64(gr.vertex)).SetStr("impl", gr.node.Name).
		SetInt("node", int64(gr.node.ID)).SetStr("strategy", gr.node.Strategy)
	defer func() {
		r.vsec.Observe(time.Since(start).Seconds())
		vspan.End()
	}()
	for attempt := 0; ; attempt++ {
		rel, err := r.runAttempt(gr, ins, inputs, vspan, attempt, stray)
		if err == nil {
			vspan.SetInt("attempts", int64(attempt+1))
			return rel, nil
		}
		if cerr := r.ctx.Err(); cerr != nil {
			// The run was cancelled; report the context's cause rather
			// than whatever the teardown surfaced as.
			return nil, fmt.Errorf("dist: vertex %d aborted: %w", gr.vertex, cerr)
		}
		if !retryable(err) {
			return nil, err
		}
		if attempt >= *r.cfg.MaxRetries {
			return nil, &RetriesExhaustedError{Vertex: gr.vertex, Attempts: attempt + 1, Cause: err}
		}
		if dl := r.cfg.VertexDeadline; dl > 0 && time.Since(start) >= dl {
			return nil, &RetriesExhaustedError{Vertex: gr.vertex, Attempts: attempt + 1, Deadline: dl, Cause: err}
		}
		r.recordRetry(gr.vertex)
		bspan := r.tr.Start(vspan, "retry.backoff").SetInt("attempt", int64(attempt))
		berr := sleepCtx(r.ctx, r.cfg.backoffDelay(gr.vertex, attempt))
		bspan.End()
		if berr != nil {
			return nil, fmt.Errorf("dist: vertex %d aborted during retry backoff: %w", gr.vertex, berr)
		}
	}
}

// runAttempt runs one execution attempt of a group. When speculation is
// enabled and the run's vertex-duration histogram has enough
// observations to derive a deadline, the attempt is raced against a
// straggler timer: if the primary has not finished by the p99-derived
// deadline, a speculative duplicate launches with rotated owner shards
// and the first successful result wins — both attempts replay the same
// deterministic kernels over the same immutable inputs, so winner and
// loser are bit-identical and either result is correct. The loser is
// cancelled and drained on the run's attempt WaitGroup so shutdown
// never races a straggling task against queue close; launching the
// duplicate marks the group's inputs stray, since the loser may still be
// reading them when the winner returns.
func (r *run) runAttempt(gr *planGroup, ins []*engine.Relation, inputs map[string]*tensor.Dense,
	vspan *obs.Span, attempt int, stray *atomic.Bool) (*engine.Relation, error) {
	deadline := r.specDeadline()
	if deadline <= 0 {
		aspan := r.tr.Start(vspan, "attempt").SetInt("n", int64(attempt))
		defer aspan.End()
		x := &exec{run: r, ctx: r.ctx, attempt: attempt, stray: stray, span: aspan}
		return x.execGroup(gr, ins, inputs)
	}

	type outcome struct {
		rel  *engine.Relation
		err  error
		spec bool
	}
	// Capacity 2 so neither attempt ever blocks sending its result: a
	// loser finishing after runAttempt returned must still exit.
	resc := make(chan outcome, 2)
	pctx, pcancel := context.WithCancel(r.ctx)
	defer pcancel()
	sctx, scancel := context.WithCancel(r.ctx)
	defer scancel()
	start := func(ctx context.Context, spec bool) {
		r.specWG.Add(1)
		go func() {
			defer r.specWG.Done()
			name, off := "attempt", 0
			if spec {
				name, off = "attempt.speculative", 1
			}
			aspan := r.tr.Start(vspan, name).SetInt("n", int64(attempt))
			x := &exec{run: r, ctx: ctx, attempt: attempt, ownerOff: off, stray: stray, span: aspan}
			rel, err := x.execGroup(gr, ins, inputs)
			aspan.End()
			resc <- outcome{rel: rel, err: err, spec: spec}
		}()
	}
	start(pctx, false)
	timer := time.NewTimer(deadline)
	defer timer.Stop()
	running, specLaunched := 1, false
	var primaryErr, specErr error
	for {
		select {
		case <-timer.C:
			if !specLaunched {
				specLaunched = true
				stray.Store(true)
				running++
				r.reg.Counter("dist.speculative.launches").Inc()
				vspan.SetInt("speculated", 1)
				start(sctx, true)
			}
		case out := <-resc:
			running--
			if out.err == nil {
				if out.spec {
					r.reg.Counter("dist.speculative.wins").Inc()
					pcancel()
				} else {
					scancel()
				}
				// A still-running loser drains through the buffered
				// channel and exits via specWG; its error is discarded.
				return out.rel, nil
			}
			if out.spec {
				specErr = out.err
			} else {
				primaryErr = out.err
			}
			if running > 0 {
				continue // the other attempt may still succeed
			}
			if primaryErr != nil {
				return nil, primaryErr
			}
			return nil, specErr
		}
	}
}

// specDeadline derives the straggler deadline for the next attempt from
// the run's own vertex-duration histogram: Multiplier × p99, floored at
// Floor. Zero means "do not speculate": speculation disabled, too few
// observations yet, or the p99 landed in the histogram's overflow
// bucket (no finite estimate).
func (r *run) specDeadline() time.Duration {
	if !r.cfg.Speculate {
		return 0
	}
	sp := r.cfg.Speculation
	if r.vsec.Count() < int64(sp.MinObservations) {
		return 0
	}
	q := r.vsec.Quantile(0.99)
	if q <= 0 || math.IsInf(q, 1) {
		return 0
	}
	d := time.Duration(q * sp.Multiplier * float64(time.Second))
	if d < sp.Floor {
		d = sp.Floor
	}
	return d
}

// backoffDelay returns the jittered pause before retry `attempt` of a
// vertex: exponential growth from backoffBase capped at backoffCap,
// then equal jitter — half the nominal delay is kept fixed and the
// other half is scaled by a hash of (retry seed, vertex, attempt) — so
// every wait stays at least half the nominal backoff while concurrent
// retries decorrelate.
func (c *Config) backoffDelay(vertex, attempt int) time.Duration {
	d := c.BackoffBase << uint(attempt)
	if d > c.BackoffCap || d <= 0 {
		d = c.BackoffCap
	}
	if d <= 0 {
		return 0
	}
	half := d / 2
	return half + time.Duration(jitterFrac(c.FaultPlan.Seed(), vertex, attempt)*float64(half))
}

// sleepCtx waits d, returning early with the context's error on
// cancellation — neither a retry backoff nor an injected delay may
// outlive a cancel.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// jitterFrac hashes (seed, vertex, attempt) to a fraction in [0, 1)
// with a splitmix64 finalizer: pure, order-independent and
// schedule-independent, so the jitter a vertex's attempt draws never
// depends on which other vertices retried first.
func jitterFrac(seed int64, vertex, attempt int) float64 {
	z := uint64(seed) ^ uint64(vertex)*0x9e3779b97f4a7c15 ^ uint64(attempt)*0xbf58476d1ce4e5b9
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// recordRetry meters one recomputation of a vertex into the run's
// registry; the Report's Retries/RetriesByVertex are views over these
// counters.
func (r *run) recordRetry(vertex int) {
	r.reg.Counter("dist.retries", obs.L("vertex", strconv.Itoa(vertex))).Inc()
}
