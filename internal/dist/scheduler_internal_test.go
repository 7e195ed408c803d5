package dist

import (
	"context"
	"fmt"
	"net"
	"slices"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/netfabric"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// serveWorker runs an in-process netfabric worker on an ephemeral
// loopback listener until the test ends and returns its address.
func serveWorker(t *testing.T, opts ...netfabric.ServerOption) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	worker := netfabric.NewServer(opts...)
	served := make(chan error, 1)
	go func() { served <- worker.Serve(ln) }()
	t.Cleanup(func() {
		worker.Close()
		if err := <-served; err != nil {
			t.Errorf("worker Serve: %v", err)
		}
	})
	return ln.Addr().String()
}

// TestExecuteFreesAtLastConsumer: once execute returns, the scheduler
// holds exactly the plan's retained relations — every other one was
// released when its last consumer completed — and those relations
// collect to the sequential engine's bits. It checks the set, not
// Report.PeakBytes, because the peak depends on the order concurrent
// steps complete in.
func TestExecuteFreesAtLastConsumer(t *testing.T) {
	addr := serveWorker(t)
	cl := costmodel.LocalTest(3)
	env := core.NewEnv(cl, format.All())
	for _, spec := range []workload.Spec{
		{Workload: "chain", Scale: 400},
		{Workload: "ffnn3", Scale: 4000},
	} {
		g, inputs, err := spec.Normalized().Build()
		if err != nil {
			t.Fatal(err)
		}
		ann, err := core.Optimize(g, env)
		if err != nil {
			t.Fatal(err)
		}
		p := enginetest.Lower(t, env, ann)
		want := enginetest.Run(t, engine.New(cl), p, inputs)

		for _, tpName := range []string{"chan", "tcp-local"} {
			for _, shards := range []int{1, 2, 7} {
				name := fmt.Sprintf("%s/%s/%d shards", spec.Workload, tpName, shards)
				cfg := Config{Shards: shards}.withDefaults()
				cfg.Transport = netfabric.Chan()
				if tpName == "tcp-local" {
					tp, err := netfabric.NewTCP([]string{netfabric.LocalPeer, addr})
					if err != nil {
						t.Fatal(err)
					}
					cfg.Transport = tp
				}
				r := newRun(cfg, cl, context.Background(), p)
				rels, _, err := r.execute(inputs)
				r.stop()
				if c, ok := cfg.Transport.(*netfabric.TCP); ok {
					c.Close()
				}
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}

				held := make([]int, 0, len(rels))
				for id := range rels {
					held = append(held, id)
				}
				slices.Sort(held)
				retained := slices.Clone(p.Retained)
				slices.Sort(retained)
				if !slices.Equal(held, retained) {
					t.Fatalf("%s: scheduler holds vertices %v after the run, want exactly the retained %v", name, held, retained)
				}
				for _, id := range held {
					got, err := engine.Collect(rels[id])
					if err != nil {
						t.Fatalf("%s: collecting v%d: %v", name, id, err)
					}
					if !tensor.BitEqual(got, want[id]) {
						t.Fatalf("%s: v%d differs from the sequential engine's bits", name, id)
					}
				}
			}
		}
	}
}
