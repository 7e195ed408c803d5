// Package dist is a sharded multi-worker execution runtime for
// annotated plans: the measured counterpart of the sequential reference
// engine in internal/engine. Each relation's tuples are hash partitioned
// across P worker shards — one goroutine pool per shard, standing in for
// the paper's cluster nodes (the same substitution DESIGN.md documents
// for the simulator, applied to real execution). A dataflow DAG
// scheduler runs independent vertices concurrently, ref-counts each
// relation's consumers so shards are freed as soon as the last consumer
// finishes, and accounts peak resident bytes.
//
// The runtime holds no operator code. Each physical implementation is
// defined once, in internal/engine's operator table, against the
// engine.Mover interface; a run's per-attempt exec implements Mover with
// the shard workers (Parallel, On), the exchange fabric (Exchange,
// Reduce) and the fault hooks, so operators never touch another shard's
// tuples directly and every movement meters the actual bytes and message
// counts crossing shard boundaries.
// Every run meters into its own obs.Registry — exchange traffic by
// (vertex, kind, label), per-shard busy time, queue-wait and
// vertex-duration histograms, retries — and its Report is built as a
// view over that registry, including on failed and degraded runs, then
// merged into the process-wide registry (DESIGN.md §11). With a tracer
// attached (WithTracer) each run also records a span tree: dist.run →
// vertex → attempt → exchange, plus retry.backoff during recovery.
// Reports can be held against the cost model's predicted features.
//
// Determinism: the runtime produces byte-identical results to the
// sequential engine, which interprets the same table at one shard.
// Floating-point addition is not associative, so every aggregation ships
// tagged partial results (key, seq) to a deterministic shard, sorts
// them, and folds them in that one order at every shard count.
package dist

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/netfabric"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// Runtime executes annotated plans across a fixed number of shards.
type Runtime struct {
	cluster costmodel.Cluster
	shards  int

	faults          *FaultPlan
	maxRetries      int
	backoffBase     time.Duration
	backoffCap      time.Duration
	vertexDeadline  time.Duration
	exchangeTimeout time.Duration
	retrySeed       int64
	retrySeedSet    bool

	ckptOn       bool
	ckptMultiple float64
	ckptBudget   int64
	spec         *Speculation

	kernelThreads int

	transport netfabric.Transport

	tr   *obs.Tracer
	span *obs.Span
}

// Speculation configures straggler re-execution: once a run has at
// least MinObservations completed vertex durations, any attempt that
// runs longer than Multiplier × the observed p99 (but never less than
// Floor) gets a speculative duplicate launched on rotated owner shards;
// the first attempt to finish wins and the loser is cancelled. Both
// attempts replay the same deterministic kernels over the same
// immutable inputs, so the winner's result is bit-identical either way.
type Speculation struct {
	// MinObservations is how many completed vertices the run must have
	// timed before deadlines are derived; below it nothing speculates.
	// Zero or negative means speculate from the first vertex that has
	// any estimate at all.
	MinObservations int
	// Multiplier scales the observed p99 vertex duration into the
	// straggler deadline.
	Multiplier float64
	// Floor is the minimum deadline, guarding against spuriously tight
	// p99 estimates early in a run.
	Floor time.Duration
}

// DefaultSpeculation is a conservative profile: wait for 8 observations,
// call an attempt a straggler at 3× the p99, never under 10ms.
func DefaultSpeculation() Speculation {
	return Speculation{MinObservations: 8, Multiplier: 3, Floor: 10 * time.Millisecond}
}

// Recovery defaults: two retries with sub-millisecond-to-50ms capped
// exponential backoff keep recovery latency negligible next to any real
// vertex's compute, and the 30s guards only ever fire on genuinely
// wedged runs.
const (
	DefaultMaxRetries      = 2
	defaultBackoffBase     = 500 * time.Microsecond
	defaultBackoffCap      = 50 * time.Millisecond
	defaultVertexDeadline  = 30 * time.Second
	defaultExchangeTimeout = 30 * time.Second
)

// Option configures a Runtime.
type Option func(*Runtime)

// WithFaults installs a deterministic fault-injection schedule; nil
// (the default) injects nothing and costs one nil check per hook.
func WithFaults(p *FaultPlan) Option { return func(rt *Runtime) { rt.faults = p } }

// WithTracer attaches an obs tracer: every Run opens a "dist.run" span
// under parent, with per-vertex "vertex"/"attempt" children, one
// "exchange" span per fabric exchange, and "retry.backoff" spans during
// recovery (DESIGN.md §11). A nil tracer — the default — disables
// tracing at zero cost; the metrics registry backing each Report is
// unaffected by this option.
func WithTracer(t *obs.Tracer, parent *obs.Span) Option {
	return func(rt *Runtime) { rt.tr, rt.span = t, parent }
}

// WithMaxRetries sets how many times a vertex whose execution fails
// transiently (ErrShardFailed, ErrExchangeTimeout) is recomputed before
// the run gives up with ErrRetriesExhausted. Negative values are
// clamped to 0 (fail on first fault). Default DefaultMaxRetries.
func WithMaxRetries(n int) Option {
	return func(rt *Runtime) {
		if n < 0 {
			n = 0
		}
		rt.maxRetries = n
	}
}

// WithRetryBackoff sets the capped exponential backoff between retry
// attempts: attempt i waits min(base<<i, cap). Non-positive values keep
// the defaults.
func WithRetryBackoff(base, cap time.Duration) Option {
	return func(rt *Runtime) {
		if base > 0 {
			rt.backoffBase = base
		}
		if cap > 0 {
			rt.backoffCap = cap
		}
	}
}

// WithVertexDeadline bounds the total recovery window of one vertex:
// once a vertex has been failing for this long, the run stops retrying
// it. Zero disables the deadline.
func WithVertexDeadline(d time.Duration) Option {
	return func(rt *Runtime) { rt.vertexDeadline = d }
}

// WithExchangeTimeout bounds how long one exchange may take before the
// consuming vertex fails with ErrExchangeTimeout (and is retried). Zero
// disables the timeout.
func WithExchangeTimeout(d time.Duration) Option {
	return func(rt *Runtime) { rt.exchangeTimeout = d }
}

// WithRetrySeed seeds the deterministic retry-backoff jitter. Without
// this option the seed defaults to the fault plan's seed (when one is
// installed), so a chaos run's backoff schedule is reproducible from
// the same seed that drives its faults.
func WithRetrySeed(seed int64) Option {
	return func(rt *Runtime) { rt.retrySeed, rt.retrySeedSet = seed, true }
}

// WithCheckpointing enables cost-model-driven checkpoint placement: a
// compute vertex whose recompute-from-frontier cost exceeds multiple ×
// its materialization cost is pinned resident for recovery (exempt from
// ref-counted frees), truncating the cascades a later node loss can
// trigger. multiple <= 0 uses costmodel.DefaultCheckpointMultiple.
// budgetBytes caps the total bytes pinned — deepest vertices first,
// since a deep vertex fronts the longest recompute chain; <= 0 means
// unbounded.
func WithCheckpointing(multiple float64, budgetBytes int64) Option {
	return func(rt *Runtime) {
		rt.ckptOn = true
		rt.ckptMultiple = multiple
		rt.ckptBudget = budgetBytes
	}
}

// WithSpeculation enables speculative straggler re-execution with the
// given profile; see Speculation. Use DefaultSpeculation() for a
// conservative starting point.
func WithSpeculation(s Speculation) Option {
	return func(rt *Runtime) {
		if s.Multiplier <= 0 {
			s.Multiplier = 3
		}
		rt.spec = &s
	}
}

// WithKernelThreads bounds the threads each shard's local compute
// kernels may use. ≤ 0 (the default) sizes the budget to the machine
// divided by the shard count — pool.Budget(shards) = max(1,
// GOMAXPROCS/shards) — so shard parallelism and kernel parallelism
// compose without oversubscribing: the kernels run on the shared
// GOMAXPROCS-bounded pool in internal/pool, and a shard that cannot get
// a pool worker simply computes its chunk inline. Results are
// bit-identical at every setting.
func WithKernelThreads(n int) Option {
	return func(rt *Runtime) { rt.kernelThreads = n }
}

// WithTransport routes every exchange through t instead of the default
// in-process channel transport (netfabric.Chan). With a TCP transport
// the runtime's shards stay local goroutines but their exchange inboxes
// live on the mapped worker peers, so every cross-shard payload incurs
// real serialization, framing and socket costs — and wire failures
// (refused dials, severed connections, I/O deadlines) surface as
// ErrExchangeTimeout and ride the existing retry/cascade/fallback
// ladder. Outputs are bit-identical across transports: the fabric's
// (key, seq) sort erases arrival order. The caller owns t's lifecycle;
// the runtime never closes it.
func WithTransport(t netfabric.Transport) Option {
	return func(rt *Runtime) {
		if t != nil {
			rt.transport = t
		}
	}
}

// DefaultShards is the shard count used when the caller does not choose
// one: the process's GOMAXPROCS.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// New returns a runtime with the given cluster profile (for per-tuple
// size bounds) and shard count. The shard count must be positive; use
// DefaultShards to size it to the host.
func New(cl costmodel.Cluster, shards int, opts ...Option) (*Runtime, error) {
	if shards <= 0 {
		return nil, fmt.Errorf("dist: shard count must be positive, got %d", shards)
	}
	rt := &Runtime{
		cluster:         cl,
		shards:          shards,
		maxRetries:      DefaultMaxRetries,
		backoffBase:     defaultBackoffBase,
		backoffCap:      defaultBackoffCap,
		vertexDeadline:  defaultVertexDeadline,
		exchangeTimeout: defaultExchangeTimeout,
		transport:       netfabric.Chan(),
	}
	for _, opt := range opts {
		opt(rt)
	}
	if !rt.retrySeedSet && rt.faults != nil {
		rt.retrySeed = rt.faults.Seed()
	}
	return rt, nil
}

// Shards returns the configured shard count.
func (rt *Runtime) Shards() int { return rt.shards }

// Run executes an annotated compute graph on real data and returns the
// assembled dense result of every sink vertex, keyed by vertex ID,
// together with a Report of what the run measured. Results are
// byte-identical to the sequential engine's — including runs that
// recovered from injected or transient faults, since every vertex
// recomputation replays the same deterministic kernels over immutable
// inputs. The context cancels the run at the next vertex, exchange or
// backoff boundary.
//
// On error the Report is still returned (with whatever the run metered
// before failing) so callers deciding whether to degrade to another
// engine can see the faults and retries that led here.
func (rt *Runtime) Run(ctx context.Context, ann *core.Annotation, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, *Report, error) {
	env := core.NewEnv(rt.cluster, format.All())
	p, err := plan.Lower(ann.Graph, env, ann)
	if err != nil {
		return nil, &Report{Shards: rt.shards}, err
	}
	return rt.RunPlan(ctx, p, inputs)
}

// RunPlan executes an already-lowered physical plan; see Run. The plan
// is validated before any shard does work, so a corrupt or stale plan
// fails with plan.ErrInvalidPlan instead of executing garbage. This is
// the runtime's single execution entry point: Run lowers and delegates
// here, and callers that cache lowered plans (the public Executor, the
// CLI's -plan-in path) call it directly.
func (rt *Runtime) RunPlan(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, *Report, error) {
	if err := p.Validate(); err != nil {
		return nil, &Report{Shards: rt.shards}, err
	}
	groups, err := buildGroups(p)
	if err != nil {
		return nil, &Report{Shards: rt.shards}, err
	}
	start := time.Now()
	r := newRun(rt, ctx, p, groups)
	defer r.stop()
	rels, peak, err := r.execute(inputs)
	if err != nil {
		return nil, r.report(peak, time.Since(start)), err
	}
	outs := make(map[int]*tensor.Dense)
	for _, id := range p.Retained {
		rel := rels[id]
		if rel == nil {
			return nil, r.report(peak, time.Since(start)), fmt.Errorf("dist: sink %d has no relation after the run: %w", id, core.ErrInternal)
		}
		m, err := engine.Assemble(rel.Relation)
		if err != nil {
			return nil, r.report(peak, time.Since(start)), fmt.Errorf("dist: collecting sink %d: %w", id, err)
		}
		outs[id] = m
	}
	return outs, r.report(peak, time.Since(start)), nil
}
