package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sort"
	"time"

	"matopt"
	"matopt/internal/benchkit"
	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/netfabric"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	gen "matopt/internal/workload"
)

// libDef describes a workload whose user is a library caller: one
// goroutine that carries a graph to verified result bytes through
// matopt.Optimizer and matopt.Executor, over and over.
type libDef struct {
	// cold gives every operation a new Optimizer (empty plan cache, so a
	// full search) and adds plan.Encode; otherwise the plan is optimized
	// once in set-up and every operation's Optimize is a cache hit.
	cold bool
	// tcp runs on the dist engine, peers "local" plus a loopback
	// netfabric worker; otherwise on the sequential engine.
	tcp bool
	// graph builds the computation with every dimension divided by shrink
	// once more; inputs draws its input matrices.
	graph  func(shrink int64) (*core.Graph, error)
	inputs func(rng *rand.Rand, g *core.Graph) map[string]*tensor.Dense
}

var (
	chainSeq     = libDef{graph: chainGraph(1, 40), inputs: normalInputs}
	chainDistTCP = libDef{tcp: true, graph: chainGraph(2, 100), inputs: normalInputs}
	inverseCold  = libDef{cold: true, graph: inverseGraph(80), inputs: inverseInputs}
)

// chainGraph returns the builder of the §8.2 matmul chain, size set
// `set` of Figure 4 with every dimension divided by scale·shrink.
func chainGraph(set int, scale int64) func(int64) (*core.Graph, error) {
	return func(shrink int64) (*core.Graph, error) {
		sz := gen.ChainSizeSets()[set-1]
		div := func(s shape.Shape) shape.Shape {
			return shape.New(max(s.Rows/(scale*shrink), 1), max(s.Cols/(scale*shrink), 1))
		}
		sz.A, sz.B, sz.C = div(sz.A), div(sz.B), div(sz.C)
		sz.D, sz.E, sz.F = div(sz.D), div(sz.E), div(sz.F)
		return gen.MatMulChain(sz)
	}
}

// inverseGraph returns the builder of Figure 9's two-level block
// inverse with the paper's 10K/2K/8K split divided by scale·shrink.
func inverseGraph(scale int64) func(int64) (*core.Graph, error) {
	return func(shrink int64) (*core.Graph, error) {
		paper := gen.PaperBlockInverse()
		outer := max(paper.Outer/(scale*shrink), 2)
		inner1 := max(outer*paper.Inner1/paper.Outer, 1)
		return gen.BlockInverse2(gen.BlockInverseConfig{
			Outer: outer, Inner1: inner1, Inner2: outer - inner1, BlockFormat: format.NewSingle(),
		})
	}
}

// randNormal draws an r×c matrix of Normal(0, 1) entries. It is the
// benchmark's own draw, not tensor.RandNormal, so that a change to the
// program cannot change the inputs two commits are compared on.
func randNormal(rng *rand.Rand, r, c int) *tensor.Dense {
	m := tensor.NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// normalInputs draws every input of g, in vertex order, with Normal(0,
// 1) entries — how the paper generates its matrices.
func normalInputs(rng *rand.Rand, g *core.Graph) map[string]*tensor.Dense {
	in := map[string]*tensor.Dense{}
	for _, v := range g.Sources() {
		in[v.Name] = randNormal(rng, int(v.Shape.Rows), int(v.Shape.Cols))
	}
	return in
}

// inverseInputs draws one 2n×2n matrix, adds 2n to its diagonal so that
// every Schur complement the plan inverts is well conditioned, and cuts
// it into the nine blocks the graph names.
func inverseInputs(rng *rand.Rand, g *core.Graph) map[string]*tensor.Dense {
	n1 := int(g.ByName("A11").Shape.Rows)
	n := n1 + int(g.ByName("A22").Shape.Rows)
	full := randNormal(rng, 2*n, 2*n)
	for i := 0; i < 2*n; i++ {
		full.Set(i, i, full.At(i, i)+float64(2*n))
	}
	return map[string]*tensor.Dense{
		"A11": full.Slice(0, n1, 0, n1), "A12": full.Slice(0, n1, n1, n),
		"A21": full.Slice(n1, n, 0, n1), "A22": full.Slice(n1, n, n1, n),
		"B1": full.Slice(0, n1, n, 2*n), "B2": full.Slice(n1, n, n, 2*n),
		"C1": full.Slice(n, 2*n, 0, n1), "C2": full.Slice(n, 2*n, n1, n),
		"D": full.Slice(n, 2*n, n, 2*n),
	}
}

// worker is an in-process netfabric exchange worker on a loopback
// listener — the constructor `matoptd -worker` wraps, behind a real
// socket.
type worker struct {
	srv  *netfabric.Server
	addr string
	done chan error
}

func startWorker() (*worker, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("worker listen: %w", err)
	}
	w := &worker{srv: netfabric.NewServer(), addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { w.done <- w.srv.Serve(ln) }()
	return w, nil
}

// stop closes the worker and waits for its accept loop to return.
func (w *worker) stop() {
	_ = w.srv.Close() // nothing to do about a failed close of a loopback listener
	<-w.done
}

// executor returns an Executor for the engine named by kind: "seq",
// "chan" (dist, in-process exchange) or "tcp" (dist, shard 1 behind the
// loopback worker at addr).
func executor(kind, addr string, tr *matopt.Tracer) *matopt.Executor {
	opts := []matopt.ExecutorOption{matopt.WithTracing(tr)}
	if kind != "seq" {
		opts = append(opts, matopt.WithEngineKind(matopt.DistEngine), matopt.WithShards(shards))
	}
	if kind == "tcp" {
		opts = append(opts, matopt.WithPeers(matopt.LocalPeer, addr))
	}
	return matopt.NewExecutor(cluster, opts...)
}

// digest hashes result matrices — vertex ID, shape and the exact float
// bits, in vertex order — so "the same output" means the same bytes.
func digest(outs map[int]*tensor.Dense) [sha256.Size]byte {
	ids := make([]int, 0, len(outs))
	for id := range outs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, id := range ids {
		m := outs[id]
		put(uint64(id))
		put(uint64(m.Rows))
		put(uint64(m.Cols))
		for _, x := range m.Data {
			put(math.Float64bits(x))
		}
	}
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// libInst is a set-up library workload.
type libInst struct {
	def    libDef
	shrink int64
	g      *core.Graph
	inputs map[string]*tensor.Dense
	wk     *worker // nil unless def.tcp

	// opt serves the tracing-off passes; tracedOpt, made on first use,
	// carries tr so that traced passes leave the untraced ones untouched.
	opt, tracedOpt *matopt.Optimizer
	tr             *matopt.Tracer

	// first holds the first operation's outputs: what verify checks
	// against the oracle and what every later output must equal.
	first       map[int]*tensor.Dense
	firstDigest [sha256.Size]byte
	nextOp      int
	failLog
}

func (d libDef) setup(seed int64, lim limits) (instance, error) {
	w := &libInst{def: d, shrink: lim.shrink}
	var err error
	if w.g, err = d.graph(lim.shrink); err != nil {
		return nil, err
	}
	w.inputs = d.inputs(rand.New(rand.NewSource(seed)), w.g)
	if d.tcp {
		if w.wk, err = startWorker(); err != nil {
			return nil, err
		}
	}
	if w.opt, err = w.optimizer(nil); err != nil {
		w.close()
		return nil, err
	}
	if lim.warmups > 0 {
		if res := w.pass(limits{maxOps: lim.warmups}, nil); res.failed > 0 {
			w.close()
			return nil, fmt.Errorf("warm-up failed: %w", w.firstErr)
		}
	}
	return w, nil
}

// optimizer returns an Optimizer whose plan cache already holds the
// workload's lowered plan — the state a warm operation starts from. A
// cold workload makes its own per operation and gets nil here.
func (w *libInst) optimizer(tr *matopt.Tracer) (*matopt.Optimizer, error) {
	if w.def.cold {
		return nil, nil
	}
	opt := matopt.NewOptimizer(cluster, matopt.WithTracer(tr))
	p, err := opt.Optimize(matopt.NewBuilderFromGraph(w.g))
	if err != nil {
		return nil, err
	}
	_, err = p.Physical()
	return opt, err
}

func (w *libInst) probeTarget() (*core.Graph, map[string]*tensor.Dense) { return w.g, w.inputs }

func (w *libInst) close() {
	if w.wk != nil {
		w.wk.stop()
	}
}

// opSpans are the benchmark's span IDs the program's own spans hang
// beneath.
type opSpans struct{ optimize, run benchkit.SpanID }

// op carries the graph to result bytes once: build · optimize · lower
// (· encode) · run · hash, each under its own span.
func (w *libInst) op(id int, rec *benchkit.Recorder, opt *matopt.Optimizer, x *matopt.Executor, tr *matopt.Tracer) (sum [sha256.Size]byte, outs map[int]*tensor.Dense, ids opSpans, err error) {
	root := rec.Start(0, id, "op")
	defer rec.End(root)
	step := func(name string, fn func() error) benchkit.SpanID {
		if err != nil {
			return 0
		}
		s := rec.Start(root, id, name)
		err = fn()
		rec.End(s)
		return s
	}
	var b *matopt.Builder
	var p *matopt.Plan
	var pp *plan.Plan
	step("build", func() error {
		g, err := w.def.graph(w.shrink)
		b = matopt.NewBuilderFromGraph(g)
		return err
	})
	ids.optimize = step("optimize", func() (err error) {
		if w.def.cold {
			opt = matopt.NewOptimizer(cluster, matopt.WithTracer(tr))
		}
		p, err = opt.Optimize(b)
		return err
	})
	step("lower", func() (err error) {
		pp, err = p.Physical()
		return err
	})
	if w.def.cold {
		step("encode", func() error {
			_, err := plan.Encode(pp, opt.Env())
			return err
		})
	}
	ids.run = step("run", func() (err error) {
		outs, err = x.Run(p, w.inputs)
		return err
	})
	step("hash", func() error {
		sum = digest(outs)
		return nil
	})
	return sum, outs, ids, err
}

func (w *libInst) pass(lim limits, rec *benchkit.Recorder) passResult {
	opt, tr := w.opt, (*matopt.Tracer)(nil)
	if rec != nil {
		if w.tr == nil {
			w.tr = matopt.NewTracer()
			var err error
			if w.tracedOpt, err = w.optimizer(w.tr); err != nil {
				w.fail(err)
				return passResult{failed: 1}
			}
			w.tr.Reset()
		}
		opt, tr = w.tracedOpt, w.tr
	}
	kind, addr := "seq", ""
	if w.def.tcp {
		kind, addr = "tcp", w.wk.addr
	}
	x := executor(kind, addr, tr)

	var res passResult
	start := time.Now()
	for n := 0; !lim.done(n, start); n++ {
		w.nextOp++
		t0 := time.Now()
		sum, outs, ids, err := w.op(w.nextOp, rec, opt, x, tr)
		res.lat = append(res.lat, time.Since(t0).Seconds())
		res.wall = time.Since(start).Seconds()
		switch {
		case err != nil:
			w.fail(err)
			res.failed++
		case w.first == nil:
			w.first, w.firstDigest = outs, sum
		case sum != w.firstDigest:
			w.fail(fmt.Errorf("op %d produced other bytes than the first op", w.nextOp))
			res.failed++
		}
		hangProgramSpans(rec, tr, w.nextOp, ids)
	}
	return res
}

// hangProgramSpans moves the spans the program emitted during one
// operation from its tracer into rec: the "optimize" tree beneath the
// benchmark's optimize span, the "execute" tree beneath its run span.
func hangProgramSpans(rec *benchkit.Recorder, tr *matopt.Tracer, op int, ids opSpans) {
	if rec == nil || tr == nil {
		return
	}
	mapped := map[int64]benchkit.SpanID{}
	for _, s := range tr.Snapshot().Spans {
		parent, ok := mapped[s.Parent]
		if !ok {
			parent = ids.run
			if s.Name == "optimize" {
				parent = ids.optimize
			}
		}
		end := s.End
		if end.IsZero() {
			end = s.Start
		}
		mapped[s.ID] = rec.Add(parent, op, s.Name, s.Start, end)
	}
	tr.Reset()
}

// verify evaluates the graph with the oracle and holds the first
// operation's outputs to it; every later operation was already required
// to reproduce those bytes.
func (w *libInst) verify() error {
	if w.first == nil {
		return errors.New("no operation completed")
	}
	in := map[string]*benchkit.Mat{}
	for name, m := range w.inputs {
		in[name] = oracleMat(m)
	}
	want, err := benchkit.Eval(w.g, in)
	if err != nil {
		return err
	}
	if len(want) != len(w.first) {
		return fmt.Errorf("engine returned %d outputs, oracle %d", len(w.first), len(want))
	}
	for id, m := range want {
		if e := benchkit.RelErr(oracleMat(w.first[id]), m); e > oracleTol {
			return fmt.Errorf("vertex %d differs from the oracle by %.3g relative (limit %g)", id, e, oracleTol)
		}
	}
	return nil
}

// oracleMat views an engine matrix as the oracle's type (sharing its
// data); a missing matrix stays nil, which RelErr reports as +Inf.
func oracleMat(m *tensor.Dense) *benchkit.Mat {
	if m == nil {
		return nil
	}
	return &benchkit.Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data}
}

// oracleTol is the largest max-abs error, relative to the largest
// expected entry, an engine output may have against the oracle.
const oracleTol = 1e-7
