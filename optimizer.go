package matopt

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/lru"
	"matopt/internal/netfabric"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// FormatSet selects the universe of physical formats the optimizer may
// choose from (§8.4 restricts it for the optimizer-runtime study).
type FormatSet int

const (
	// AllFormats is the full 19-format universe, sparse layouts included.
	AllFormats FormatSet = iota
	// DenseFormats is the 16-format universe without sparse layouts.
	DenseFormats
	// SingleStripBlockFormats matches §8.4's 16-format restriction.
	SingleStripBlockFormats
	// SingleBlockFormats matches §8.4's 10-format restriction.
	SingleBlockFormats
)

func (fs FormatSet) formats() []format.Format {
	switch fs {
	case DenseFormats:
		return format.DenseOnly()
	case SingleStripBlockFormats:
		return format.SingleStripBlock()
	case SingleBlockFormats:
		return format.SingleBlock()
	default:
		return format.All()
	}
}

// Algorithm selects the optimization algorithm.
type Algorithm int

const (
	// Auto is the Frontier DP (Algorithm 4) on every graph.
	Auto Algorithm = iota
	// BruteForce enumerates every type-correct annotation (Algorithm 2);
	// exponential, bounded by the optimizer's Budget.
	BruteForce
)

// Optimizer chooses optimal physical plans for computations. Options are
// recorded first and the environment is built once in NewOptimizer, so
// option order never matters.
type Optimizer struct {
	cluster   Cluster
	formatSet FormatSet
	model     *costmodel.Model
	algorithm Algorithm
	budget    time.Duration
	cacheSize int
	tracer    *Tracer

	env    *core.Env
	cache  *lru.Cache[string, *plan.Plan]
	flight *flightGroup
}

// Option configures an Optimizer.
type Option func(*Optimizer)

// WithFormats restricts the format universe.
func WithFormats(fs FormatSet) Option { return func(o *Optimizer) { o.formatSet = fs } }

// WithAlgorithm selects the optimization algorithm.
func WithAlgorithm(a Algorithm) Option { return func(o *Optimizer) { o.algorithm = a } }

// WithBudget bounds the brute-force search time (default 30 minutes, as
// in the paper's Figure 13).
func WithBudget(d time.Duration) Option { return func(o *Optimizer) { o.budget = d } }

// WithModel installs a calibrated cost model (see Calibrate).
func WithModel(m *costmodel.Model) Option { return func(o *Optimizer) { o.model = m } }

// WithParallelism does nothing: the Frontier search runs on the calling
// goroutine.
//
// Deprecated: there is no parallelism left to bound; drop the option.
func WithParallelism(n int) Option { return func(*Optimizer) {} }

// WithPlanCacheSize sets the plan cache's LRU capacity (default
// DefaultPlanCacheSize).
func WithPlanCacheSize(n int) Option { return func(o *Optimizer) { o.cacheSize = n } }

// WithTracer attaches a tracer to the optimizer: every Optimize call
// opens an "optimize" span with "plancache.lookup" and per-algorithm
// children ("frontier" with one "frontier.round" per vertex, or
// "brute.enumerate"). A nil tracer — the default — disables tracing at
// zero cost. The same tracer may be shared with an Executor (see
// WithTracing) so one Trace covers a plan's whole life.
func WithTracer(t *Tracer) Option { return func(o *Optimizer) { o.tracer = t } }

// NewOptimizer returns an optimizer for the given cluster profile.
func NewOptimizer(cl Cluster, opts ...Option) *Optimizer {
	o := &Optimizer{
		cluster:   cl,
		formatSet: AllFormats,
		algorithm: Auto,
		budget:    30 * time.Minute,
	}
	for _, opt := range opts {
		opt(o)
	}
	o.env = core.NewEnv(o.cluster, o.formatSet.formats())
	if o.model != nil {
		o.env.Model = o.model
	}
	o.cache = newPlanCache(o.cacheSize)
	o.flight = newFlightGroup()
	return o
}

// Env exposes the optimization environment for advanced callers (the
// experiment harness uses it to cross baselines and clusters).
func (o *Optimizer) Env() *core.Env { return o.env }

// CachedPlans reports how many optimized computations the plan cache
// currently holds.
func (o *Optimizer) CachedPlans() int { return o.cache.Len() }

// Plan is an optimized, type-correct annotated compute graph in the
// form every engine executes: the lowered physical plan (internal/plan),
// which carries the annotation and graph it was lowered from. A Plan is
// lowered where it is made — by the search that found it or by
// DecodePlan — in the Optimizer's own environment; cache hits and
// coalesced waiters share the leader's lowered plan.
type Plan struct {
	phys        *plan.Plan
	env         *core.Env
	fingerprint string
	stats       core.Stats
	cached      bool
	coalesced   bool
}

// ErrTimeout reports that the search exceeded its budget or deadline.
var ErrTimeout = core.ErrTimeout

// ErrInfeasible reports that no type-correct annotation exists.
var ErrInfeasible = core.ErrInfeasible

// ErrInternal reports an inconsistency inside the optimizer itself (a
// bug in the search, not in the caller's computation).
var ErrInternal = core.ErrInternal

// ErrShardFailed reports that a dist-engine shard task died
// mid-execution (in-process: an injected crash). Transient — the
// runtime retries the vertex before surfacing it.
var ErrShardFailed = dist.ErrShardFailed

// ErrExchangeTimeout reports that a dist-engine exchange lost messages
// or its wire failed. Transient — retried like ErrShardFailed.
var ErrExchangeTimeout = dist.ErrExchangeTimeout

// ErrRetriesExhausted reports that a dist-engine vertex kept failing
// past the retry budget; with ExecConfig.Fallback
// the Executor degrades to the sequential engine instead of returning it.
var ErrRetriesExhausted = dist.ErrRetriesExhausted

// Optimize computes the cost-optimal annotation of the builder's graph.
func (o *Optimizer) Optimize(b *Builder, outputs ...Matrix) (*Plan, error) {
	return o.OptimizeCtx(context.Background(), b, outputs...)
}

// OptimizeCtx is Optimize under a caller-supplied context: a cancelled
// or expired context aborts the search mid-flight with ErrTimeout
// (deadline) or the context's own error (cancellation). Results are
// served from the plan cache when an identical computation — same graph
// structure, shapes, densities, format universe and cluster profile —
// was optimized before. Concurrent calls that miss the cache on the
// same fingerprint are coalesced: exactly one runs the search, the rest
// wait and share its plan (Plan.Coalesced reports which happened).
func (o *Optimizer) OptimizeCtx(ctx context.Context, b *Builder, outputs ...Matrix) (*Plan, error) {
	if b.err != nil {
		return nil, b.err
	}
	g := b.g
	if g.NumOps() == 0 {
		return nil, errors.New("matopt: computation has no operations")
	}
	span := o.tracer.Start(nil, "optimize").SetInt("vertices", int64(len(g.Vertices)))
	defer span.End()
	lspan := o.tracer.Start(span, "plancache.lookup")
	fp := core.Fingerprint(g, o.env)
	key := fmt.Sprintf("%d|%s", o.algorithm, fp)
	pp, ok := o.cache.Get(key)
	lspan.SetBool("hit", ok).End()
	if ok {
		obs.Default().Counter("matopt.plancache.hits").Inc()
		span.SetBool("cached", true)
		return &Plan{phys: pp, env: o.env, fingerprint: fp, cached: true}, nil
	}
	// Cache miss: coalesce with any identical in-flight search. The
	// leader populates the cache before waiters are released, so every
	// later request — coalesced or not — shares one lowered plan.
	var stats core.Stats // the leader's; a waiter ran no search
	pp, leader, err := o.flight.do(ctx, key, func() (*plan.Plan, error) {
		obs.Default().Counter("matopt.plancache.misses").Inc()
		found, st, serr := o.search(ctx, g, span)
		if serr == nil {
			stats = st
			o.cache.Put(key, found)
		}
		return found, serr
	})
	if err != nil {
		return nil, err
	}
	if !leader {
		obs.Default().Counter("matopt.plancache.coalesced").Inc()
		span.SetBool("coalesced", true)
	}
	return &Plan{phys: pp, env: o.env, fingerprint: fp, stats: stats, coalesced: !leader}, nil
}

// search runs the configured optimization algorithm on g and lowers the
// winning annotation: lowering costs microseconds against the search's
// milliseconds, and doing it here means a plan is never handed out — or
// cached — in a form an engine cannot run.
func (o *Optimizer) search(ctx context.Context, g *core.Graph, span *Span) (*plan.Plan, core.Stats, error) {
	var ann *core.Annotation
	var err error
	var sess *core.Session
	if o.algorithm == BruteForce {
		bctx, cancel := context.WithTimeout(ctx, o.budget)
		defer cancel()
		sess = o.newSession(bctx, span)
		ann, err = sess.Brute(g)
	} else {
		sess = o.newSession(ctx, span)
		ann, err = sess.Optimize(g)
	}
	if err != nil {
		return nil, core.Stats{}, err
	}
	pp, err := plan.Lower(g, o.env, ann)
	if err != nil {
		return nil, core.Stats{}, err
	}
	return pp, sess.Stats(), nil
}

// DecodePlan reconstructs a Plan for the builder's computation from a
// serialized physical plan (plan.Encode output: the CLI's -plan-out
// file, the /plan response). No search runs: the payload's fingerprint
// is checked against this optimizer's environment, the decisions its
// node listing states are lowered and verified, and the listing compared
// with the lowered one, so a payload made for another computation or
// cluster, or edited since, is refused with an error wrapping
// plan.ErrInvalidPlan. The result runs, simulates and explains like any
// optimized Plan.
func (o *Optimizer) DecodePlan(b *Builder, data []byte) (*Plan, error) {
	if b.err != nil {
		return nil, b.err
	}
	pp, err := plan.Decode(b.g, o.env, data)
	if err != nil {
		return nil, err
	}
	return &Plan{phys: pp, env: o.env, fingerprint: core.Fingerprint(b.g, o.env)}, nil
}

func (o *Optimizer) newSession(ctx context.Context, span *Span) *core.Session {
	var opts []core.SessionOption
	if o.tracer != nil {
		opts = append(opts, core.WithTracer(o.tracer, span))
	}
	return core.NewSession(ctx, o.env, opts...)
}

// PredictedSeconds returns the cost model's total predicted running time.
func (p *Plan) PredictedSeconds() float64 { return p.phys.Ann.Total() }

// OptimizerSeconds returns the wall time the optimizer itself took.
func (p *Plan) OptimizerSeconds() float64 { return p.phys.OptSeconds }

// OptimizerStats returns the search's per-run instrumentation: classes
// expanded, beam entries pruned, candidates evaluated and wall time. A
// plan served from the cache reports zeroes — no search ran.
func (p *Plan) OptimizerStats() core.Stats { return p.stats }

// Cached reports whether the plan was served from the plan cache rather
// than a fresh search.
func (p *Plan) Cached() bool { return p.cached }

// Coalesced reports whether the plan was obtained by waiting on an
// identical concurrent optimization rather than searching: of N
// concurrent cache-missing requests for the same computation, exactly
// one runs the search (Cached and Coalesced both false) and the other
// N−1 coalesce onto it.
func (p *Plan) Coalesced() bool { return p.coalesced }

// Describe renders the chosen implementations, formats and re-layouts.
func (p *Plan) Describe() string { return p.phys.Ann.Describe() }

// Annotation exposes the underlying annotated graph.
func (p *Plan) Annotation() *core.Annotation { return p.phys.Ann }

// Fingerprint returns the canonical identity of the plan's computation
// under the optimizer's environment — the key the plan cache and the
// coalescing layers filed it under. Two computations with the same
// fingerprint (same graph structure, shapes, densities, format universe
// and cluster profile) share one cached plan.
func (p *Plan) Fingerprint() string { return p.fingerprint }

// Physical returns the shared physical-plan IR (internal/plan) that
// every engine executes: the same pointer for a plan, its cache hits and
// its coalesced waiters. The IR is engine-invariant, so it drives the
// sequential engine and the dist runtime at any shard count. The error
// is always nil — a Plan is lowered where it is made — and remains in
// the signature for callers written against lazy lowering.
func (p *Plan) Physical() (*plan.Plan, error) { return p.phys, nil }

// Explain pretty-prints the lowered physical plan: one line per
// physical operator with its strategy class and model-predicted cost
// (the CLI's -explain output). The error is always nil, as Physical's.
func (p *Plan) Explain() (string, error) { return p.phys.Explain(), nil }

// Verify re-checks the plan's type-correctness (§4.2).
func (p *Plan) Verify() error { return p.phys.Ann.Verify(p.env) }

// EngineKind selects which execution runtime an Executor drives.
type EngineKind int

const (
	// SequentialEngine is the in-process relational engine: one vertex at
	// a time, tuples iterated in sorted order. It is the reference
	// semantics every other engine must reproduce bit-for-bit.
	SequentialEngine EngineKind = iota
	// DistEngine is the sharded multi-worker runtime (internal/dist):
	// relations hash-partitioned across shard goroutines, operators
	// exchanging tuples over a byte-metered shuffle fabric, independent
	// DAG vertices executing concurrently. Results are bit-identical to
	// SequentialEngine; each run additionally produces a DistReport.
	DistEngine
)

// ExecConfig is the one description of an execution's run-time
// environment — shards, kernel threads, retry budget, fallback, fault
// injection, peers — shared verbatim with the /execute body and the
// matopt CLI. Its field comments are the reference for every knob; every
// run applies its Validate.
type ExecConfig = dist.Config

// ExecutorOption configures an Executor.
type ExecutorOption func(*Executor)

// WithExecConfig sets the Executor's whole run-time configuration,
// replacing anything earlier options set — so give it before WithShards
// or WithPeers. An invalid configuration (a negative count, a dist-only
// knob on the sequential engine) is reported by the first run.
func WithExecConfig(cfg ExecConfig) ExecutorOption { return func(x *Executor) { x.cfg = cfg } }

// WithEngineKind selects the execution runtime (default SequentialEngine).
func WithEngineKind(k EngineKind) ExecutorOption { return func(x *Executor) { x.kind = k } }

// WithShards sets ExecConfig.Shards.
func WithShards(n int) ExecutorOption { return func(x *Executor) { x.cfg.Shards = n } }

// LocalPeer is the WithPeers entry meaning "host this shard on the
// coordinator process itself" — its exchanges never touch a socket.
const LocalPeer = netfabric.LocalPeer

// WithPeers sets ExecConfig.Peers.
func WithPeers(peers ...string) ExecutorOption { return func(x *Executor) { x.cfg.Peers = peers } }

// WithTracing attaches a tracer to the Executor: every run opens an
// "execute" span; a DistEngine run nests its "dist.run" span (with
// per-vertex, per-attempt, per-exchange and retry children) underneath,
// and a degraded run adds a "fallback.sequential" span carrying the
// cause. A nil tracer — the default — disables tracing at zero cost.
// Named WithTracing rather than WithTracer only because Optimizer and
// Executor options are distinct types; share one *Tracer between both
// to get a single Trace covering optimize + execute.
func WithTracing(t *Tracer) ExecutorOption { return func(x *Executor) { x.tracer = t } }

// FaultPlan is a deterministic schedule of injected failures for the
// dist runtime, set as ExecConfig.FaultPlan; build one with
// NewFaultPlan or RandomFaults.
type FaultPlan = dist.FaultPlan

// Fault is one scheduled failure in a FaultPlan.
type Fault = dist.Fault

// FaultKind selects what a Fault breaks.
type FaultKind = dist.FaultKind

// Fault kinds, re-exported from the dist runtime.
const (
	FaultCrash        = dist.FaultCrash
	FaultDropExchange = dist.FaultDropExchange
)

// RetriesExhaustedError carries the failing vertex, attempt count and
// root-cause fault behind an ErrRetriesExhausted; errors.As extracts it
// from any dist-engine error.
type RetriesExhaustedError = dist.RetriesExhaustedError

// NewFaultPlan builds an explicit fault schedule.
func NewFaultPlan(faults ...Fault) *FaultPlan { return dist.NewFaultPlan(faults...) }

// RandomFaults derives a reproducible schedule of n faults from a seed
// over the given vertex IDs.
func RandomFaults(seed int64, n int, vertices []int) *FaultPlan {
	return dist.RandomFaults(seed, n, vertices)
}

// DistReport is the dist runtime's per-run measurement: actual bytes and
// messages over every exchange, per-shard busy time, peak resident
// bytes — directly comparable against the cost model's predictions —
// plus the recovery record (faults injected, retries taken, and whether
// the run degraded to the sequential engine).
type DistReport = dist.Report

// Executor runs plans on real data, over either the in-process
// sequential relational engine or the sharded dist runtime.
type Executor struct {
	cluster Cluster
	eng     *engine.Engine
	kind    EngineKind
	tracer  *Tracer
	cfg     ExecConfig

	mu         sync.Mutex
	lastReport *DistReport
}

// NewExecutor returns an executor for the given cluster profile;
// options select the runtime (default: sequential).
func NewExecutor(cl Cluster, opts ...ExecutorOption) *Executor {
	x := &Executor{cluster: cl, eng: engine.New(cl)}
	for _, opt := range opts {
		opt(x)
	}
	x.eng.KernelThreads = x.cfg.KernelThreads
	return x
}

// Run executes the plan; inputs maps input names to dense matrices. The
// result maps each sink's vertex ID to its dense output; for the common
// single-output case use RunSingle.
//
// Inputs are read, never written, and outputs share no memory with them
// (nor with storage a run recycles). One set of matrices may therefore
// be handed to any number of runs, concurrent ones included — the
// serving layer's input cache does (TestEnginesLeaveInputsUntouched).
// The outputs are the caller's alone, drawn from the tensor free list:
// a caller done with one may give it back (the serving layer does once
// it has encoded the reply).
func (x *Executor) Run(p *Plan, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	return x.RunCtx(context.Background(), p, inputs)
}

// RunCtx is Run — inputs are never written — under a caller-supplied
// context; execution checks the context between vertices and aborts with
// its error when cancelled.
// With ExecConfig.Fallback, a DistEngine run that fails for any reason
// other than cancellation is transparently re-executed on the
// sequential engine; DistReport then carries Degraded and the failure
// cause.
func (x *Executor) RunCtx(ctx context.Context, p *Plan, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, error) {
	if err := x.cfg.Validate(x.kind == DistEngine); err != nil {
		return nil, fmt.Errorf("matopt: %w", err)
	}
	span := x.tracer.Start(nil, "execute")
	defer span.End()
	if x.kind == DistEngine {
		span.SetStr("engine", "dist")
		cfg := x.cfg
		cfg.Tracer, cfg.Span = x.tracer, span
		rt, err := dist.New(x.cluster, cfg)
		if err != nil {
			return nil, err
		}
		outs, rep, err := rt.RunPlan(ctx, p.phys, inputs)
		if err != nil {
			if !cfg.Fallback || ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
			// Degrade, keeping the failed attempt's Report: its meters
			// record what the dist run shipped, retried and injected
			// before giving up, which is what a caller diagnosing the
			// degradation needs.
			rep.Degraded = true
			rep.DegradedCause = err.Error()
		}
		x.mu.Lock()
		x.lastReport = rep
		x.mu.Unlock()
		if err == nil {
			return outs, nil
		}
		fspan := x.tracer.Start(span, "fallback.sequential").SetStr("cause", err.Error())
		defer fspan.End()
		return x.eng.RunPlan(ctx, p.phys, inputs)
	}
	span.SetStr("engine", "seq")
	sspan := x.tracer.Start(span, "seq.run")
	defer sspan.End()
	return x.eng.RunPlan(ctx, p.phys, inputs)
}

// DistReport returns the measurement of the most recent DistEngine run,
// or nil when none has completed. After a degraded run (Fallback)
// the report carries the attempted dist run's meters — traffic shipped,
// retries taken, faults injected — alongside Degraded/DegradedCause,
// not a zeroed report.
func (x *Executor) DistReport() *DistReport {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.lastReport
}

// Trace returns a snapshot of the tracer attached with WithTracing, or
// nil when the Executor is untraced. When the same tracer is shared
// with the Optimizer, the snapshot covers both optimization and
// execution spans.
func (x *Executor) Trace() *Trace { return x.tracer.Snapshot() }

// RunSingle executes a single-output plan and returns its result.
func (x *Executor) RunSingle(p *Plan, inputs map[string]*tensor.Dense) (*tensor.Dense, error) {
	outs, err := x.Run(p, inputs)
	if err != nil {
		return nil, err
	}
	sinks := p.phys.Graph.Sinks()
	if len(sinks) != 1 {
		return nil, fmt.Errorf("matopt: plan has %d outputs; use Run", len(sinks))
	}
	return outs[sinks[0].ID], nil
}

// Stats reports what the execution actually did.
func (x *Executor) Stats() engine.Stats { return x.eng.Stats() }

// RunAdaptive executes the builder's computation with mid-run
// re-optimization (the scheme §7 of the paper sketches): the optimal
// plan runs vertex by vertex, every intermediate's true density is
// measured, and when an estimate's relative error exceeds threshold
// (the paper suggests 1.2) the remaining computation is re-optimized
// with the measured densities before continuing. The result's Outputs
// holds the dense value of every sink keyed by vertex ID, as Run
// returns them, and each round recycles its storage like Run. Adaptive
// execution always uses the sequential engine, regardless of
// WithEngineKind — its vertex-at-a-time measurement loop has no sharded
// counterpart yet.
func (x *Executor) RunAdaptive(o *Optimizer, b *Builder, inputs map[string]*tensor.Dense, threshold float64) (*engine.AdaptiveResult, error) {
	if b.err != nil {
		return nil, b.err
	}
	return x.eng.RunAdaptive(b.g, o.env, inputs, threshold)
}

// Simulate walks the plan at full scale without materializing data,
// returning the virtual wall time and resource report; the error is the
// paper's Fail outcome (e.g. a plan that exceeds worker RAM). The walk
// folds the same lowered physical IR the engines execute.
func Simulate(p *Plan) (engine.Report, error) { return engine.SimulatePlan(p.phys, p.env) }

// Dense re-exports the engine's dense matrix type for inputs/outputs.
type Dense = tensor.Dense

// NewDense returns a zeroed rows×cols matrix.
func NewDense(rows, cols int) *Dense { return tensor.NewDense(rows, cols) }
