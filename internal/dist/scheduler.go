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

// planGroup is the dist runtime's unit of scheduling and recovery: one
// vertex's producing plan node (a scan or compute) fused with the
// re-layout nodes feeding it. Fusing keeps the fault surface per vertex
// — one attempt counter, one retry unit — exactly as
// the recovery semantics and chaos tests expect, while the work itself
// is described entirely by shared physical-plan IR nodes.
type planGroup struct {
	vertex    int
	node      *plan.Node   // the vertex's producing node (KindScan or KindCompute)
	relayouts []*plan.Node // per compute arg: the fused re-layout node, nil for identity edges
	deps      []int        // producer vertex IDs in argument order
}

// buildGroups fuses a lowered plan into per-vertex recovery groups.
// Free nodes are not scheduled — the scheduler ref-counts relations by
// consumer group instead, which releases values at the same points the
// plan's free nodes mark, but safely under concurrent completion order.
func buildGroups(p *plan.Plan) ([]*planGroup, error) {
	groups := make([]*planGroup, len(p.Graph.Vertices))
	for _, n := range p.Nodes {
		switch n.Kind {
		case plan.KindScan:
			groups[n.Vertex] = &planGroup{vertex: n.Vertex, node: n}
		case plan.KindCompute:
			gr := &planGroup{
				vertex:    n.Vertex,
				node:      n,
				relayouts: make([]*plan.Node, len(n.Inputs)),
				deps:      make([]int, len(n.Inputs)),
			}
			for j, id := range n.Inputs {
				in := p.Nodes[id]
				if in.Kind == plan.KindRelayout {
					gr.relayouts[j] = in
					in = p.Nodes[in.Inputs[0]]
				}
				if in.Kind != plan.KindScan && in.Kind != plan.KindCompute {
					return nil, fmt.Errorf("dist: node %d input %d is not a vertex value: %w",
						n.ID, id, core.ErrInternal)
				}
				gr.deps[j] = in.Vertex
			}
			groups[n.Vertex] = gr
		}
	}
	for id, gr := range groups {
		if gr == nil {
			return nil, fmt.Errorf("dist: vertex %d has no plan node: %w", id, core.ErrInternal)
		}
	}
	return groups, nil
}

// run is the per-execution state: one worker goroutine per shard fed by
// a task queue, the lowered physical plan being executed, the optional
// tracer, and the typed meters the run's Report is built from.
type run struct {
	cfg     Config            // this run's: defaults filled, FaultPlan and Transport resolved
	cl      costmodel.Cluster // per-tuple size bounds
	ctx     context.Context
	pl      *plan.Plan
	groups  []*planGroup
	st      *engine.Storage // what this run's compute groups and re-layouts produced
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
	wire    []engine.Tuple // what this attempt's exchanges received as copies of their own
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

func newRun(cfg Config, cl costmodel.Cluster, ctx context.Context, p *plan.Plan, groups []*planGroup) *run {
	r := &run{
		cfg:     cfg,
		cl:      cl,
		ctx:     ctx,
		pl:      p,
		groups:  groups,
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
// attempt runs on its group's goroutine, which execute waits for, so no
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

// execute schedules the dataflow DAG: every recovery group whose inputs
// are ready is launched concurrently, and a completed group drops
// inputs whose last consumer has now run (retained vertices are kept).
// A compute group's output is owned by the run's Storage, so a dropped
// one goes back to the tensor free list: every exchange has returned
// with its producers, so nothing reads it once its last consumer is done.
// The first error wins: nothing further launches, and execute returns
// it once every group in flight has reported. Returns the retained
// relations and the peak resident bytes.
func (r *run) execute(inputs map[string]*tensor.Dense) (rels map[int]*engine.Relation, peak int64, err error) {
	refs := make(map[int]int, len(r.groups))
	for _, gr := range r.groups {
		for _, dep := range gr.deps {
			refs[dep]++
		}
	}
	retain := make(map[int]bool, len(r.pl.Retained))
	for _, id := range r.pl.Retained {
		retain[id] = true
	}

	type result struct {
		id  int
		rel *engine.Relation
		err error
	}
	results := make(chan result)
	rels = make(map[int]*engine.Relation, len(r.groups))
	launched := make(map[int]bool, len(r.groups))
	var failed error
	var resident int64
	inFlight, completed := 0, 0

	ready := func(gr *planGroup) bool {
		if launched[gr.vertex] {
			return false
		}
		for _, dep := range gr.deps {
			if _, ok := rels[dep]; !ok {
				return false
			}
		}
		return true
	}
	launch := func(gr *planGroup) {
		launched[gr.vertex] = true
		// Snapshot input relations now: ref counts guarantee they stay
		// alive until this consumer completes.
		ins := make([]*engine.Relation, len(gr.deps))
		for j, dep := range gr.deps {
			ins[j] = rels[dep]
		}
		inFlight++
		go func(gr *planGroup) {
			rel, err := r.runGroup(gr, ins, inputs)
			results <- result{id: gr.vertex, rel: rel, err: err}
		}(gr)
	}

	for {
		if failed == nil {
			if err := r.ctx.Err(); err != nil {
				failed = fmt.Errorf("dist: execution aborted: %w", err)
			} else {
				for _, gr := range r.groups {
					if ready(gr) {
						launch(gr)
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
		for _, dep := range r.groups[res.id].deps {
			refs[dep]--
			if refs[dep] == 0 && !retain[dep] {
				resident -= rels[dep].Bytes()
				r.st.Free(rels[dep])
				delete(rels, dep)
			}
		}
	}
	if failed != nil {
		return nil, peak, failed
	}
	if completed != len(r.groups) {
		return nil, peak, fmt.Errorf("dist: scheduler stalled with %d of %d vertices executed: %w",
			completed, len(r.groups), core.ErrInternal)
	}
	return rels, peak, nil
}

// execGroup runs one recovery group's plan nodes through the operator
// table with this attempt as the Mover: the scan for sources, otherwise
// the fused re-layout nodes followed by the compute node's operator,
// whose output the run's Storage then owns. What else the attempt made —
// a re-layout output that is not its input, and the copies its exchanges
// received over a wire — is its alone, so once the compute has
// succeeded it goes back to the free list, less what the output holds.
func (x *exec) execGroup(gr *planGroup, ins []*engine.Relation, inputs map[string]*tensor.Dense) (*engine.Relation, error) {
	defer func() {
		if ns := x.kernAcc.Load(); ns > 0 {
			x.span.SetInt("kernel_ns", ns)
		}
	}()
	if err := x.ctx.Err(); err != nil {
		return nil, fmt.Errorf("dist: execution aborted before vertex %d: %w", gr.vertex, err)
	}
	if f := x.cfg.FaultPlan.claim(gr.vertex, x.attempt); f != nil {
		x.faults.Add(1)
		return nil, fmt.Errorf("dist: injected %v on shard %d: %w", *f, x.OwnerShard(gr.vertex), ErrShardFailed)
	}
	n := gr.node
	if n.Kind == plan.KindScan {
		m, ok := inputs[n.Source]
		if !ok {
			return nil, fmt.Errorf("dist: no input matrix for source %q", n.Source)
		}
		if int64(m.Rows) != n.OutShape.Rows || int64(m.Cols) != n.OutShape.Cols {
			return nil, fmt.Errorf("dist: input %q is %dx%d, graph declares %v",
				n.Source, m.Rows, m.Cols, n.OutShape)
		}
		rel, err := engine.Scan(x, gr.vertex, m, n.OutFormat, x.cl.MaxTupleBytes)
		if err != nil {
			return nil, fmt.Errorf("dist: loading %q: %w", n.Source, err)
		}
		return rel, nil
	}
	args := make([]*engine.Relation, len(ins))
	for j, in := range ins {
		if in == nil {
			return nil, fmt.Errorf("dist: vertex %d input %d was freed early", gr.vertex, j)
		}
		args[j] = in
	}
	for j := range args {
		if rn := gr.relayouts[j]; rn != nil {
			var err error
			args[j], err = engine.Relayout(x, gr.vertex, j, args[j], rn.OutFormat, x.cl.MaxTupleBytes)
			if err != nil {
				return nil, fmt.Errorf("dist: transforming input %d of vertex %d: %w", j, gr.vertex, err)
			}
			if args[j] != ins[j] {
				x.st.Own(args[j])
			}
		}
	}
	out, err := engine.Compute(x, n, args)
	if err != nil {
		return nil, fmt.Errorf("dist: %w", err)
	}
	x.st.Own(out)
	wire := &engine.Relation{Parts: [][]engine.Tuple{x.wire}}
	x.st.Own(wire)
	for j, a := range args {
		if a != ins[j] {
			x.st.Free(a)
		}
	}
	x.st.Free(wire)
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
