// Package dist is a sharded multi-worker execution runtime for
// annotated plans: the measured counterpart of the sequential reference
// engine in internal/engine. Each relation's tuples are hash partitioned
// across P worker shards — one goroutine pool per shard, standing in for
// the paper's cluster nodes (the same substitution DESIGN.md documents
// for the simulator, applied to real execution). A dataflow DAG
// scheduler runs the plan's independent steps (plan.Plan.Steps)
// concurrently, releases each relation when its plan.Plan.Consumers
// count reaches zero — as soon as its last consumer finishes — and
// accounts peak resident bytes.
//
// The runtime holds no operator code and no step code. Each physical
// implementation is defined once, in internal/engine's operator table,
// against the engine.Mover interface, and each attempt at a step runs
// engine.RunStep, the sequential engine's step; a run's per-attempt exec
// implements Mover with the shard workers (Parallel, On), the exchange
// fabric (Exchange, Reduce) and the fault hooks, so operators never
// touch another shard's tuples directly and every movement meters the
// actual bytes and message counts crossing shard boundaries.
// Every run meters into typed fields of its own — exchange traffic by
// (vertex, kind, label), per-shard busy time, kernel time, retries,
// faults, wire traffic — and builds its Report from them, including on
// failed and degraded runs, then publishes the Report once into the
// process-wide obs.Default registry; the queue-wait and vertex-duration
// histograms are observed there live (DESIGN.md §11). With a tracer
// attached (Config.Tracer) each run also records a span tree: dist.run →
// vertex → attempt → exchange.
// Reports can be held against the cost model's predicted features.
//
// Everything a caller may set about a run is a field of Config, the
// struct New takes and the public API, the /execute body and the CLI
// all bind to; Config.Validate is the only place a knob is checked.
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
	"time"

	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/netfabric"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// Runtime executes lowered plans under one validated Config.
type Runtime struct {
	cluster costmodel.Cluster
	cfg     Config // defaults filled
	oneStep bool   // run one step at a time, in plan order: tests pin a PeakBytes no schedule moves
}

// New returns a runtime for the given cluster profile (per-tuple size
// bounds) and configuration, which must pass Config.Validate(true);
// its zero values take their documented defaults.
func New(cl costmodel.Cluster, cfg Config) (*Runtime, error) {
	if err := cfg.Validate(true); err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return &Runtime{cluster: cl, cfg: cfg.withDefaults()}, nil
}

// Config returns the runtime's configuration with defaults filled in:
// the shard count, retry budget and fault seed its runs actually use.
func (rt *Runtime) Config() Config { return rt.cfg }

// FaultSchedule lists the faults a run of p injects — the FaultPlan's,
// or those Faults/FaultSeed derive for p — so a caller can print them
// before running.
func (rt *Runtime) FaultSchedule(p *plan.Plan) []Fault { return rt.cfg.faultPlan(p).Faults() }

// RunPlan executes a lowered physical plan on real data — the runtime's
// one execution entry point — and returns the assembled dense result of
// every retained vertex, keyed by vertex ID, together with a Report of
// what the run measured. Results are byte-identical to the sequential
// engine's — including runs that recovered from injected or transient
// faults, since every vertex recomputation replays the same
// deterministic kernels over immutable inputs. The context cancels the
// run at the next vertex or exchange boundary. The plan is
// validated before any shard does work, so a corrupt or stale plan fails
// with plan.ErrInvalidPlan instead of executing garbage.
//
// On error the Report is still returned (with whatever the run metered
// before failing) so callers deciding whether to degrade to another
// engine can see the faults and retries that led here.
func (rt *Runtime) RunPlan(ctx context.Context, p *plan.Plan, inputs map[string]*tensor.Dense) (map[int]*tensor.Dense, *Report, error) {
	if err := p.Validate(); err != nil {
		return nil, &Report{Shards: rt.cfg.Shards}, err
	}
	// What is per run, not per runtime: a fresh seeded fault schedule
	// for this plan's vertices, and — with Peers — a TCP transport whose
	// pooled connections live for the run's exchanges and are torn down
	// with it, so a degraded or failed run never leaks sockets.
	cfg := rt.cfg
	cfg.FaultPlan = cfg.faultPlan(p)
	switch {
	case cfg.Transport != nil:
	case len(cfg.Peers) > 0:
		tp, err := netfabric.NewTCP(cfg.Peers)
		if err != nil {
			return nil, &Report{Shards: cfg.Shards}, err
		}
		defer tp.Close()
		cfg.Transport = tp
	default:
		cfg.Transport = netfabric.Chan()
	}
	start := time.Now()
	r := newRun(cfg, rt.cluster, ctx, p)
	r.oneStep = rt.oneStep
	defer r.stop()
	rels, peak, err := r.execute(inputs)
	if err != nil {
		return nil, r.report(peak, time.Since(start)), err
	}
	outs, err := engine.Outputs(r.st, p.Retained, rels)
	if err != nil {
		return nil, r.report(peak, time.Since(start)), fmt.Errorf("dist: %w", err)
	}
	return outs, r.report(peak, time.Since(start)), nil
}
