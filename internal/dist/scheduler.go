package dist

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/netfabric"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// run is the per-execution state: one worker goroutine per shard fed by
// a task queue, the lowered physical plan being executed, the optional
// tracer, and the typed meters the run's Report is built from.
type run struct {
	cfg     Config            // this run's: defaults filled, FaultPlan and Transport resolved
	cl      costmodel.Cluster // per-tuple size bounds
	ctx     context.Context
	pl      *plan.Plan
	steps   []plan.Step     // pl.Steps(): the units of scheduling and recovery
	oneStep bool            // launch a step only when none is in flight
	st      *engine.Storage // what this run's steps and exchanges produced
	tasks   []chan func()
	workers sync.WaitGroup

	tr    *obs.Tracer    // nil when tracing is disabled
	span  *obs.Span      // the run's "dist.run" root span
	qwait *obs.Histogram // obs.Default's dist.queue.wait.seconds, observed live
	vsec  *obs.Histogram // obs.Default's dist.vertex.seconds, observed live

	mu      sync.Mutex             // guards meters and retries
	meters  map[engine.Xfer]*meter // exchange traffic by identity
	retries map[int]int            // vertex ID → recomputations taken
	busy    []atomic.Int64         // per-shard ns spent inside tasks
	kernNS  atomic.Int64           // wall time inside local compute kernels
	faults  atomic.Int64           // faults this run claimed or applied
	net     netfabric.Wire         // what the TCP transport put on sockets
}

// exec is one attempt's view of the run: the embedded run carries all
// shared state (shards, meters, context), while the attempt-scoped
// fields shadow it — span so exchanges nest under the
// right attempt, and attempt so fault matchers see the right number.
// *exec is the runtime's engine.Mover: the operator table reaches
// shards, workers and the fabric only through its Shards, OwnerShard,
// Kern, Flops, Parallel, On, Exchange and Reduce methods (the run-scoped
// ones promoted from the embedded run).
type exec struct {
	*run
	attempt int
	wire    []*engine.Relation // per exchange, the copies it received over a wire; owned on arrival
	span    *obs.Span
	kernAcc atomic.Int64 // kernel ns accumulated by this attempt, for its span
}

// Kern returns the kernel context this attempt's local compute runs
// under: the run's per-shard thread budget (so shard × kernel
// parallelism never oversubscribes the machine), with a timer that
// adds kernel wall time to the run's KernelTime meter and the
// attempt's kernel_ns span attribute — traces therefore show kernel
// time against the exchange spans directly.
func (x *exec) Kern() tensor.K {
	return tensor.K{Threads: x.cfg.KernelThreads, Timer: func(ns int64) {
		x.kernNS.Add(ns)
		x.kernAcc.Add(ns)
	}}
}

// Flops is a no-op: the runtime meters kernel time and exchanged bytes,
// and leaves the exact operation count to the sequential engine's Stats.
func (x *exec) Flops(int64) {}

func newRun(cfg Config, cl costmodel.Cluster, ctx context.Context, p *plan.Plan) *run {
	r := &run{
		cfg:     cfg,
		cl:      cl,
		ctx:     ctx,
		pl:      p,
		steps:   p.Steps(),
		tr:      cfg.Tracer,
		st:      engine.NewStorage(),
		tasks:   make([]chan func(), cfg.Shards),
		qwait:   obs.Default().Histogram("dist.queue.wait.seconds", obs.DefaultDurationBuckets()),
		vsec:    obs.Default().Histogram("dist.vertex.seconds", obs.DefaultDurationBuckets()),
		meters:  make(map[engine.Xfer]*meter),
		retries: make(map[int]int),
		busy:    make([]atomic.Int64, cfg.Shards),
	}
	r.span = cfg.Tracer.Start(cfg.Span, "dist.run").
		SetInt("shards", int64(cfg.Shards)).
		SetInt("kernel_threads", int64(cfg.KernelThreads))
	for s := 0; s < cfg.Shards; s++ {
		r.tasks[s] = make(chan func(), 16)
		r.workers.Add(1)
		go func(s int) {
			defer r.workers.Done()
			for fn := range r.tasks[s] {
				t0 := time.Now()
				fn()
				r.busy[s].Add(int64(time.Since(t0)))
			}
		}(s)
	}
	return r
}

// stop shuts the run down leak-free once execute has returned: every
// attempt runs on its step's goroutine, which execute waits for, so no
// task can be submitted after the shard queues close.
func (r *run) stop() {
	for _, ch := range r.tasks {
		close(ch)
	}
	r.workers.Wait()
	r.span.End()
}

// Shards returns the run's shard count.
func (r *run) Shards() int { return r.cfg.Shards }

// OwnerShard is the deterministic home of a vertex's single-tuple
// output: spreading owners by vertex ID keeps independent single-chunk
// chains on different shards, which is where the DAG parallelism of
// single-format plans comes from.
func (r *run) OwnerShard(id int) int {
	if id < 0 {
		id = -id
	}
	return id % r.Shards()
}

// submit queues fn on one shard's worker, metering how long the task
// sat in the queue before the worker picked it up.
func (r *run) submit(shard int, fn func()) {
	enq := time.Now()
	r.tasks[shard] <- func() {
		r.qwait.Observe(time.Since(enq).Seconds())
		fn()
	}
}

// Parallel runs fn(s) on every shard's worker and waits for all of
// them; the first error (by shard index) is returned.
func (r *run) Parallel(fn func(shard int) error) error {
	errs := make([]error, r.Shards())
	var wg sync.WaitGroup
	wg.Add(r.Shards())
	for s := 0; s < r.Shards(); s++ {
		s := s
		r.submit(s, func() {
			defer wg.Done()
			errs[s] = fn(s)
		})
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// On runs fn on one shard's worker and waits for it.
func (r *run) On(shard int, fn func() error) error {
	var wg sync.WaitGroup
	var err error
	wg.Add(1)
	r.submit(shard, func() {
		defer wg.Done()
		err = fn()
	})
	wg.Wait()
	return err
}

// execute schedules the dataflow DAG: every step whose inputs are ready
// is launched concurrently, and a completed step drops the inputs whose
// plan.Consumers count it brought to zero — their last consumer has run,
// and a retained vertex's count never gets there. A compute step's
// output is owned by the run's Storage, so a dropped one goes back to
// the tensor free list: every exchange has returned with its producers,
// so nothing reads it once its last consumer is done. The first error
// wins: nothing further launches, and execute returns it once every step
// in flight has reported. Returns the retained relations and the peak
// resident bytes.
func (r *run) execute(inputs map[string]*tensor.Dense) (rels map[int]*engine.Relation, peak int64, err error) {
	refs := r.pl.Consumers()
	type result struct {
		id  int
		rel *engine.Relation
		err error
	}
	results := make(chan result)
	rels = make(map[int]*engine.Relation, len(r.steps))
	launched := make([]bool, len(r.steps))
	var failed error
	var resident int64
	inFlight, completed := 0, 0

	ready := func(v int) bool {
		if launched[v] {
			return false
		}
		for _, dep := range r.steps[v].Deps {
			if _, ok := rels[dep]; !ok {
				return false
			}
		}
		return true
	}
	launch := func(v int) {
		launched[v] = true
		// Snapshot input relations now: ref counts guarantee they stay
		// alive until this consumer completes.
		ins := make([]*engine.Relation, len(r.steps[v].Deps))
		for j, dep := range r.steps[v].Deps {
			ins[j] = rels[dep]
		}
		inFlight++
		go func() {
			rel, err := r.runStep(r.steps[v], ins, inputs)
			results <- result{id: v, rel: rel, err: err}
		}()
	}

	for {
		if failed == nil {
			if err := r.ctx.Err(); err != nil {
				failed = fmt.Errorf("dist: execution aborted: %w", err)
			} else {
				for v := range r.steps {
					if r.oneStep && inFlight > 0 {
						break
					}
					if ready(v) {
						launch(v)
					}
				}
			}
		}
		if inFlight == 0 {
			break
		}
		res := <-results
		inFlight--
		if res.err != nil {
			if failed == nil {
				failed = res.err
			}
			continue
		}
		rels[res.id] = res.rel
		completed++
		resident += res.rel.Bytes()
		peak = max(peak, resident)
		for _, dep := range r.steps[res.id].Deps {
			if refs[dep]--; refs[dep] == 0 {
				resident -= rels[dep].Bytes()
				r.st.Free(rels[dep])
				delete(rels, dep)
			}
		}
	}
	if failed != nil {
		return nil, peak, failed
	}
	if completed != len(r.steps) {
		return nil, peak, fmt.Errorf("dist: scheduler stalled with %d of %d vertices executed: %w",
			completed, len(r.steps), core.ErrInternal)
	}
	return rels, peak, nil
}

// execStep is one attempt at a step: the context check, the fault claim,
// engine.RunStep with this attempt as the Mover, and then the release of
// the copies the attempt's exchanges received over a wire — its own, so
// they go back to the free list, less what a relation still holds.
func (x *exec) execStep(s plan.Step, ins []*engine.Relation, inputs map[string]*tensor.Dense) (*engine.Relation, error) {
	defer func() {
		if ns := x.kernAcc.Load(); ns > 0 {
			x.span.SetInt("kernel_ns", ns)
		}
	}()
	v := s.Node.Vertex
	if err := x.ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: execution aborted before vertex %d: %w", v, err)
	}
	if f := x.cfg.FaultPlan.claim(v, x.attempt); f != nil {
		x.faults.Add(1)
		return nil, fmt.Errorf("dist: injected %v on shard %d: %w", *f, x.OwnerShard(v), ErrShardFailed)
	}
	out, err := engine.RunStep(x, x.st, s, ins, inputs, x.cl.MaxTupleBytes)
	for _, w := range x.wire {
		x.st.Free(w)
	}
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	return out, nil
}

// report builds the Report from the run's meters and publishes it once
// into the process-wide obs.Default registry. Called exactly once per
// Run, on both the success and the error path, so even a run that is
// about to degrade reports everything it metered.
func (r *run) report(peak int64, wall time.Duration) *Report {
	rep := &Report{
		Shards:         r.Shards(),
		PeakBytes:      peak,
		Wall:           wall,
		FaultsInjected: r.faults.Load(),
		Transport:      r.cfg.Transport.Name(),
		WireBytes:      r.net.Bytes.Load(),
		WireMessages:   r.net.Messages.Load(),
		WireDials:      r.net.Dials.Load(),
		WireReconnects: r.net.Reconnects.Load(),
		ShardBusy:      make([]time.Duration, r.Shards()),
		KernelThreads:  r.cfg.KernelThreads,
		KernelTime:     time.Duration(r.kernNS.Load()),
	}
	for s := range r.busy {
		rep.ShardBusy[s] = time.Duration(r.busy[s].Load())
	}
	r.mu.Lock()
	for x, m := range r.meters {
		st := ExchangeStat{Vertex: x.Vertex, Kind: x.Kind, Label: x.Label,
			Bytes: m.bytes.Load(), Messages: m.msgs.Load()}
		rep.Exchanges = append(rep.Exchanges, st)
		rep.NetBytes += st.Bytes
		rep.Messages += st.Messages
	}
	if len(r.retries) > 0 {
		rep.RetriesByVertex = make(map[int]int, len(r.retries))
		for v, n := range r.retries {
			rep.RetriesByVertex[v] = n
			rep.Retries += int64(n)
		}
	}
	r.mu.Unlock()
	sortExchanges(rep.Exchanges)
	rep.publish(obs.Default())
	return rep
}
