package matopt

import (
	"errors"
	"net"
	"testing"
	"time"

	"matopt/internal/costmodel"
	"matopt/internal/netfabric"
	"matopt/internal/testutil"
)

// startPeerWorker runs an in-process worker on a loopback listener —
// the same server `matoptd -worker` hosts, spawned hermetically.
func startPeerWorker(t *testing.T, opts ...netfabric.ServerOption) string {
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
	return ln.Addr().String()
}

// TestExecutorWithPeers runs the DistEngine over real loopback TCP
// workers through the public API and requires bit-identical outputs
// plus wire traffic on the DistReport.
func TestExecutorWithPeers(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)
	addr1 := startPeerWorker(t)
	addr2 := startPeerWorker(t)
	for _, peers := range [][]string{
		{addr1},
		{addr1, addr2},
		{LocalPeer, addr1},
	} {
		x := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(4), WithPeers(peers...))
		got, err := x.Run(plan, inputs)
		if err != nil {
			t.Fatalf("peers %v: %v", peers, err)
		}
		requireBitIdentical(t, "dist over tcp", got, want)
		rep := x.DistReport()
		if rep == nil || rep.Transport != "tcp" {
			t.Fatalf("peers %v: report %+v lacks tcp transport", peers, rep)
		}
		if rep.WireBytes == 0 || rep.WireDials == 0 {
			t.Fatalf("peers %v: no wire traffic metered: %+v", peers, rep)
		}
		if rep.Degraded {
			t.Fatalf("peers %v: healthy run degraded: %+v", peers, rep)
		}
	}
}

// TestChaosNetFallbackOnDeadPeer points the executor at a worker that
// leaves after its first session: without fallback the run must fail
// through the typed retry ladder; with fallback it must degrade to the
// sequential engine and still produce bit-identical output.
func TestChaosNetFallbackOnDeadPeer(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)

	addr := startPeerWorker(t, netfabric.CloseAfterSessions(1))
	one := 1
	hard := NewExecutor(cl, WithEngineKind(DistEngine),
		WithExecConfig(ExecConfig{Shards: 4, MaxRetries: &one}), WithPeers(addr))
	if _, err := hard.Run(plan, inputs); err == nil {
		t.Fatal("run succeeded against a departed worker")
	} else {
		var rex *RetriesExhaustedError
		if !errors.As(err, &rex) {
			t.Fatalf("wire failure did not exhaust typed retries: %v", err)
		}
	}

	addr = startPeerWorker(t, netfabric.CloseAfterSessions(1))
	soft := NewExecutor(cl, WithEngineKind(DistEngine),
		WithExecConfig(ExecConfig{Shards: 4, MaxRetries: &one, Fallback: true}), WithPeers(addr))
	got, err := soft.Run(plan, inputs)
	if err != nil {
		t.Fatalf("fallback run: %v", err)
	}
	requireBitIdentical(t, "degraded over dead peer", got, want)
	rep := soft.DistReport()
	if rep == nil || !rep.Degraded {
		t.Fatalf("report not degraded: %+v", rep)
	}
}

// TestExecutorPeersLeakFree checks a full public-API TCP run leaves no
// goroutines behind once its worker is closed — the per-run transport
// must tear down its pooled connections with the run.
func TestExecutorPeersLeakFree(t *testing.T) {
	plan, inputs, want := faultGolden(t)
	cl := costmodel.LocalTest(3)
	testutil.CheckGoroutines(t, func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := netfabric.NewServer()
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		x := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(3),
			WithPeers(LocalPeer, ln.Addr().String()))
		got, err := x.Run(plan, inputs)
		if err != nil {
			t.Fatal(err)
		}
		requireBitIdentical(t, "leak-checked tcp run", got, want)
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("worker Serve: %v", err)
		}
		// The executor's per-run transport closed with the run; give
		// lingering TCP teardown a moment before the leak check.
		time.Sleep(10 * time.Millisecond)
	})
}
