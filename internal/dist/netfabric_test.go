package dist_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"matopt"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/netfabric"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/testutil"
	"matopt/internal/workload"
)

// startWorker runs an in-process netfabric worker on an ephemeral
// loopback listener — the hermetic stand-in for a `matoptd -worker`
// process; the wire path (framing, pooling, socket I/O) is identical.
func startWorker(t *testing.T, opts ...netfabric.ServerOption) (*netfabric.Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := netfabric.NewServer(opts...)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("worker Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

// tcpGoldenWorkload is the chain workload the TCP golden suite runs: it
// exercises broadcast, shuffle and aggregation exchanges.
func tcpGoldenWorkload(t *testing.T) (costmodel.Cluster, *plan.Plan, map[string]*tensor.Dense) {
	t.Helper()
	sz := workload.ChainSizes{
		Name: "tcp-golden",
		A:    shape.New(60, 150), B: shape.New(150, 250),
		C: shape.New(250, 1), D: shape.New(1, 250),
		E: shape.New(250, 60), F: shape.New(250, 60),
	}
	g, err := workload.MatMulChain(sz)
	if err != nil {
		t.Fatal(err)
	}
	env := core.NewEnv(costmodel.LocalTest(3), format.All())
	pp := optimize(t, g, env)
	rng := rand.New(rand.NewSource(11))
	mk := func(s shape.Shape) *tensor.Dense { return tensor.RandNormal(rng, int(s.Rows), int(s.Cols)) }
	inputs := map[string]*tensor.Dense{
		"A": mk(sz.A), "B": mk(sz.B), "C": mk(sz.C),
		"D": mk(sz.D), "E": mk(sz.E), "F": mk(sz.F),
	}
	return env.Cluster, pp, inputs
}

// sequentialBaseline runs the serial sequential engine — the reference
// every transport must reproduce bit for bit.
func sequentialBaseline(t *testing.T, cl costmodel.Cluster, pp *plan.Plan, inputs map[string]*tensor.Dense) map[int]*tensor.Dense {
	t.Helper()
	serial := engine.New(cl)
	serial.KernelThreads = 1
	return enginetest.Run(t, serial, pp, inputs)
}

// TestRunsLeaveStorageEmpty: a finished dist run's Storage owns
// nothing. engine.Outputs fails a run that leaves anything owned, so
// each run here fails if a step, a failed attempt, a release at the last
// consumer or Outputs skips a Free: over the chan transport with an
// exchange dropped after its step re-laid out an argument, and over
// loopback TCP, where a remote-hosted shard receives wire copies the run
// owns on arrival. Every array either run drew from the tensor free
// lists must be back on them, less its outputs.
func TestRunsLeaveStorageEmpty(t *testing.T) {
	// returned checks that the free lists hold what they held at before
	// once the run's outputs are released.
	returned := func(t *testing.T, before int64, outs map[int]*tensor.Dense) {
		t.Helper()
		for _, m := range outs {
			tensor.Release(m)
		}
		if kept := tensor.Outstanding() - before; kept != 0 {
			t.Fatalf("the run kept %d arrays it drew from the free lists", kept)
		}
	}
	t.Run("chan, retried after a relayout", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		g := core.NewGraph()
		a := g.Input("a", shape.New(160, 300), 1, format.NewRowStrip(100))
		b := g.Input("b", shape.New(300, 160), 1, format.NewColStrip(100))
		c := g.Input("c", shape.New(160, 500), 1, format.NewColStrip(100))
		g.MustApply(op.Op{Kind: op.MatMul}, g.MustApply(op.Op{Kind: op.MatMul}, a, b), c)
		env := core.NewEnv(costmodel.LocalTest(3), format.All())
		pp := optimize(t, g, env)
		inputs := map[string]*tensor.Dense{
			"a": tensor.RandNormal(rng, 160, 300),
			"b": tensor.RandNormal(rng, 300, 160),
			"c": tensor.RandNormal(rng, 160, 500),
		}
		v := slices.IndexFunc(pp.Steps(), func(s plan.Step) bool {
			return slices.ContainsFunc(s.Relayouts, func(n *plan.Node) bool { return n != nil })
		})
		if v < 0 {
			t.Fatal("the plan re-lays out no argument")
		}
		rt, err := dist.New(env.Cluster, dist.Config{Shards: 3, FaultPlan: dist.NewFaultPlan(
			dist.Fault{Kind: dist.FaultDropExchange, Vertex: v, Label: "broadcast(arg0)", Shard: -1})})
		if err != nil {
			t.Fatal(err)
		}
		want := sequentialBaseline(t, env.Cluster, pp, inputs)
		before := tensor.Outstanding()
		got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		compareSinks(t, "chan", pp, want, got)
		returned(t, before, got)
		if rep.Retries == 0 {
			t.Fatalf("v%d broadcast no re-laid-out argument: the drop never fired", v)
		}
	})
	t.Run("tcp", func(t *testing.T) {
		cl, pp, inputs := tcpGoldenWorkload(t)
		_, addr := startWorker(t)
		rt, err := dist.New(cl, dist.Config{Shards: 3, Peers: []string{netfabric.LocalPeer, addr}})
		if err != nil {
			t.Fatal(err)
		}
		want := sequentialBaseline(t, cl, pp, inputs)
		before := tensor.Outstanding()
		got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err != nil {
			t.Fatal(err)
		}
		compareSinks(t, "tcp", pp, want, got)
		returned(t, before, got)
		if rep.WireBytes == 0 {
			t.Error("nothing crossed the wire")
		}
	})
}

// TestGoldenTCPTransport is the tentpole's golden suite: at every
// golden shard count, dist results over loopback TCP — through one
// all-remote worker, through two workers (the multi-process topology),
// and through a mixed local/remote peer map — must be bit-identical to
// the in-process chan transport and the sequential engine.
func TestGoldenTCPTransport(t *testing.T) {
	cl, pp, inputs := tcpGoldenWorkload(t)
	want := sequentialBaseline(t, cl, pp, inputs)

	_, addr1 := startWorker(t)
	_, addr2 := startWorker(t)
	topologies := []struct {
		name  string
		peers []string
	}{
		{"one-worker", []string{addr1}},
		{"two-workers", []string{addr1, addr2}},
		{"mixed-local-remote", []string{netfabric.LocalPeer, addr1}},
	}
	for _, shards := range goldenShards {
		// The chan-transport run this PR must not perturb.
		rt, err := dist.New(cl, dist.Config{Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		chanGot, chanRep, err := rt.RunPlan(context.Background(), pp, inputs)
		if err != nil {
			t.Fatalf("chan @%d shards: %v", shards, err)
		}
		if chanRep.Transport != "chan" {
			t.Fatalf("chan report says transport %q", chanRep.Transport)
		}
		compareSinks(t, fmt.Sprintf("chan @%d shards", shards), pp, want, chanGot)

		for _, topo := range topologies {
			label := fmt.Sprintf("tcp/%s @%d shards", topo.name, shards)
			tp, err := netfabric.NewTCP(topo.peers)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := dist.New(cl, dist.Config{Shards: shards, Transport: tp})
			if err != nil {
				t.Fatal(err)
			}
			got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
			if cerr := tp.Close(); cerr != nil {
				t.Fatalf("%s: transport close: %v", label, cerr)
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			compareSinks(t, label, pp, want, got)
			if rep.Transport != "tcp" {
				t.Fatalf("%s: report says transport %q", label, rep.Transport)
			}
			if topo.name == "one-worker" && shards > 1 {
				// Every shard is remote-hosted: all exchange traffic
				// crossed the wire, framed both directions. (A single
				// shard runs no exchanges at all, so there is no wire
				// traffic to assert on.)
				if rep.WireBytes == 0 || rep.WireMessages == 0 || rep.WireDials == 0 {
					t.Fatalf("%s: no wire traffic metered: %+v", label, rep)
				}
			}
			// The fabric's logical exchange accounting must not depend
			// on the transport underneath it.
			if rep.NetBytes != chanRep.NetBytes || rep.Messages != chanRep.Messages {
				t.Fatalf("%s: exchange meters diverge from chan transport: %d B/%d msgs vs %d B/%d msgs",
					label, rep.NetBytes, rep.Messages, chanRep.NetBytes, chanRep.Messages)
			}
		}
	}
}

// TestChaosNetSeveredConn severs one session's connection mid-exchange:
// the consuming vertex must fail with ErrExchangeTimeout, retry, and
// finish bit-identical to the sequential engine. The retry takes a
// pooled connection when another session has just returned one and
// dials otherwise, so which of the two it did is not asserted.
func TestChaosNetSeveredConn(t *testing.T) {
	cl, pp, inputs := tcpGoldenWorkload(t)
	want := sequentialBaseline(t, cl, pp, inputs)
	for _, shards := range goldenShards {
		label := fmt.Sprintf("severed @%d shards", shards)
		srv, addr := startWorker(t, netfabric.SeverSessions(2))
		tp, err := netfabric.NewTCP([]string{addr}, netfabric.WithIOTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := dist.New(cl, dist.Config{Shards: shards, Transport: tp})
		if err != nil {
			t.Fatal(err)
		}
		got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
		if cerr := tp.Close(); cerr != nil {
			t.Fatalf("%s: transport close: %v", label, cerr)
		}
		if err != nil {
			t.Fatalf("%s: run failed despite retry budget: %v", label, err)
		}
		compareSinks(t, label, pp, want, got)
		if shards > 1 {
			// A single shard opens no sessions, so nothing severs; at
			// every other count the fault must have fired and healed.
			if rep.Retries == 0 {
				t.Fatalf("%s: severed connection triggered no retries: %+v", label, rep)
			}
			srv.Close() // waits for the worker's handlers, so Rejected is final
			if n := srv.Stats().Rejected; n != 1 {
				t.Fatalf("%s: worker rejected %d sessions, want the severed one", label, n)
			}
		}
	}
}

// TestChaosNetDialRefusedSurfacesExchangeTimeout kills the worker
// mid-run (connections die, later dials are refused): every failure
// must surface through the typed ErrExchangeTimeout ladder — never a
// raw net error — and exhaust into RetriesExhaustedError.
func TestChaosNetDialRefusedSurfacesExchangeTimeout(t *testing.T) {
	cl, pp, inputs := tcpGoldenWorkload(t)
	for _, shards := range goldenShards {
		if shards == 1 {
			continue // a single shard opens no sessions — no wire to kill
		}
		label := fmt.Sprintf("refused @%d shards", shards)
		_, addr := startWorker(t, netfabric.CloseAfterSessions(1))
		tp, err := netfabric.NewTCP([]string{addr}, netfabric.WithIOTimeout(2*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		rt, err := dist.New(cl, dist.Config{Shards: shards, Transport: tp})
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = rt.RunPlan(context.Background(), pp, inputs)
		if cerr := tp.Close(); cerr != nil {
			t.Fatalf("%s: transport close: %v", label, cerr)
		}
		if err == nil {
			t.Fatalf("%s: run succeeded with a dead worker", label)
		}
		if !errors.Is(err, dist.ErrExchangeTimeout) {
			t.Fatalf("%s: wire failure not mapped to ErrExchangeTimeout: %v", label, err)
		}
		if !errors.Is(err, dist.ErrRetriesExhausted) {
			t.Fatalf("%s: expected retries exhausted, got: %v", label, err)
		}
	}
}

// silentPeer listens on loopback and reads every byte each accepted
// connection sends without ever writing one: a worker that has hung.
// stop closes the listener and its connections and waits for the
// goroutines serving them.
func silentPeer(t *testing.T) (addr string, stop func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	var conns []net.Conn
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				io.Copy(io.Discard, c)
			}()
		}
	}()
	return ln.Addr().String(), func() {
		ln.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		wg.Wait()
	}
}

// TestChaosNetSilentPeer: a peer that takes every frame and never answers
// is caught by the transport's I/O deadline alone, since the runtime
// keeps no clock of its own. The run must exhaust its retry budget
// through ErrExchangeTimeout within seconds and leak nothing; an Executor
// with Fallback must serve the sequential engine's bits and say it
// degraded.
func TestChaosNetSilentPeer(t *testing.T) {
	cl, pp, inputs := tcpGoldenWorkload(t)
	testutil.CheckGoroutines(t, func() {
		addr, stop := silentPeer(t)
		defer stop()
		tp, err := netfabric.NewTCP([]string{netfabric.LocalPeer, addr}, netfabric.WithIOTimeout(200*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		defer tp.Close()
		cfg := dist.Config{Shards: 2, Transport: tp, MaxRetries: intp(1)}

		rt, err := dist.New(cl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		_, _, err = rt.RunPlan(context.Background(), pp, inputs)
		if waited := time.Since(t0); waited > 5*time.Second {
			t.Fatalf("a silent peer held the run for %v", waited)
		}
		if !errors.Is(err, dist.ErrRetriesExhausted) || !errors.Is(err, dist.ErrExchangeTimeout) {
			t.Fatalf("want ErrRetriesExhausted wrapping ErrExchangeTimeout, got %v", err)
		}

		p, err := matopt.NewOptimizer(cl).Optimize(matopt.NewBuilderFromGraph(pp.Graph))
		if err != nil {
			t.Fatal(err)
		}
		want, err := matopt.NewExecutor(cl).Run(p, inputs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Fallback = true
		x := matopt.NewExecutor(cl, matopt.WithEngineKind(matopt.DistEngine), matopt.WithExecConfig(cfg))
		got, err := x.Run(p, inputs)
		if err != nil {
			t.Fatalf("fallback run failed: %v", err)
		}
		compareSinks(t, "silent peer, fallback", pp, want, got)
		if rep := x.DistReport(); rep == nil || !rep.Degraded {
			t.Fatalf("a run that fell back must report Degraded, got %+v", rep)
		}
	})
}

// TestChaosNetShutdownLeakFree runs a full TCP-transport dist run —
// including a failing one against a departed worker — then requires
// the process back at its goroutine baseline once transport and worker
// are closed: no read loops, collectors, or handlers may survive.
func TestChaosNetShutdownLeakFree(t *testing.T) {
	cl, pp, inputs := tcpGoldenWorkload(t)
	testutil.CheckGoroutines(t, func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := netfabric.NewServer()
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		tp, err := netfabric.NewTCP([]string{netfabric.LocalPeer, ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		rt, err := dist.New(cl, dist.Config{Shards: 4, Transport: tp})
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := rt.RunPlan(context.Background(), pp, inputs); err != nil {
			t.Fatal(err)
		}
		if err := tp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("worker Serve: %v", err)
		}
	})
}

// runOverWorker runs the hand-annotated plan of g at 2 shards, shard 1
// hosted by a loopback worker, checks its outputs against the sequential
// engine's bits, and returns the run's Report and what the worker
// counted once it had served every session.
func runOverWorker(t *testing.T, g *core.Graph, ann *core.Annotation, inputs map[string]*tensor.Dense) (*dist.Report, netfabric.ServerStats) {
	t.Helper()
	srv, addr := startWorker(t)
	cl := costmodel.LocalTest(2)
	pp := enginetest.Lower(t, core.NewEnv(cl, format.All()), ann)
	want := sequentialBaseline(t, cl, pp, inputs)
	tp, err := netfabric.NewTCP([]string{netfabric.LocalPeer, addr})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := dist.New(cl, dist.Config{Shards: 2, Transport: tp})
	if err != nil {
		t.Fatal(err)
	}
	got, rep, err := rt.RunPlan(context.Background(), pp, inputs)
	tp.Close()
	if err != nil {
		t.Fatal(err)
	}
	compareSinks(t, "tcp @2 shards", pp, want, got)
	srv.Close() // waits for every handler, so Stats has every session
	return rep, srv.Stats()
}

// TestTCPSelfDeliveryStaysOffTheWire: a co-partitioned add of two
// relations already hash partitioned alike re-homes every tuple onto the
// shard it lives on, so no message of either exchange leaves its
// producer — and the worker hosting shard 1, though it hosts half the
// tuples, must not even see a session: no frame of any kind crosses the
// wire.
func TestTCPSelfDeliveryStaysOffTheWire(t *testing.T) {
	g := core.NewGraph()
	a := g.Input("A", shape.New(120, 120), 1, format.NewTile(50))
	b := g.Input("B", shape.New(120, 120), 1, format.NewTile(50))
	g.MustApply(op.Op{Kind: op.Add}, a, b)
	ann := handAnn(t, g, "add-copart", format.NewTile(50))
	rng := rand.New(rand.NewSource(5))
	inputs := map[string]*tensor.Dense{"A": tensor.RandNormal(rng, 120, 120), "B": tensor.RandNormal(rng, 120, 120)}
	rep, st := runOverWorker(t, g, ann, inputs)
	if rep.NetBytes != 0 || st.Frames != 0 || st.Sessions != 0 || rep.WireBytes != 0 {
		t.Fatalf("an exchange that stays on its producers moved %d B between shards, put %d B on the wire and %d MSG frames in %d worker sessions",
			rep.NetBytes, rep.WireBytes, st.Frames, st.Sessions)
	}
}

// TestBroadcastOnlyToPartnerShards: a row-strip × single multiply whose
// left side is one strip, on the shard that also holds the single, needs
// the single nowhere else — so its broadcast meters no bytes and puts
// nothing on the wire to the worker hosting the other shard.
func TestBroadcastOnlyToPartnerShards(t *testing.T) {
	g := core.NewGraph()
	b := g.Input("B", shape.New(80, 40), 1, format.NewSingle())     // vertex 0: owner shard 0
	a := g.Input("A", shape.New(50, 80), 1, format.NewRowStrip(50)) // one strip, key (0, 0): home shard 0
	g.MustApply(op.Op{Kind: op.MatMul}, a, b)
	ann := handAnn(t, g, "mm-rowstrip-bcast-single", format.NewRowStrip(50))
	rng := rand.New(rand.NewSource(6))
	inputs := map[string]*tensor.Dense{"A": tensor.RandNormal(rng, 50, 80), "B": tensor.RandNormal(rng, 80, 40)}
	rep, st := runOverWorker(t, g, ann, inputs)
	if len(rep.Exchanges) == 0 {
		t.Fatal("the run metered no exchange; the broadcast did not run")
	}
	for _, x := range rep.Exchanges {
		if x.Bytes != 0 {
			t.Errorf("v%d %s %s metered %d B: the partner holds nothing on the other shard", x.Vertex, x.Kind, x.Label, x.Bytes)
		}
	}
	if st.Frames != 0 {
		t.Errorf("the worker relayed %d MSG frames", st.Frames)
	}
}
