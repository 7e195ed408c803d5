package main

import (
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"

	"matopt/internal/engine"
	"matopt/internal/netfabric"
	"matopt/internal/tensor"
)

// TestWorkerLogsRejectionsAndTotals drives `matoptd -worker` below its
// flag parsing: one clean exchange session, then a peer that speaks
// garbage. The worker must log the rejected session with the peer's
// address and the typed error — and not the pooled connection that
// closed while idle — and, on shutdown, the totals of what it did.
func TestWorkerLogsRejectionsAndTotals(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	rejected := make(chan struct{}, 8) // more than the one rejection expected: logf never blocks a handler
	logf := func(format string, args ...any) {
		line := fmt.Sprintf(format, args...)
		mu.Lock()
		lines = append(lines, line)
		mu.Unlock()
		if strings.Contains(line, "rejected:") {
			rejected <- struct{}{}
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- serveWorker(ctx, ln, logf) }()

	tp, err := netfabric.NewTCP([]string{ln.Addr().String()})
	if err != nil {
		t.Fatal(err)
	}
	sess, err := tp.Open(context.Background(), nil, netfabric.ExchangeID{Vertex: 1, Kind: "shuffle", Label: "t"}, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := netfabric.Message{Tuple: engine.Tuple{Dense: tensor.NewDense(2, 2)}}
	if err := sess.Send(0, m); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Collect(); err != nil {
		t.Fatal(err)
	}
	tp.Close()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("not a netfabric frame")); err != nil {
		t.Fatal(err)
	}
	<-rejected
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serveWorker: %v", err)
	}

	mu.Lock()
	defer mu.Unlock()
	log := strings.Join(lines, "\n")
	wantReject := fmt.Sprintf("session from %s rejected: %v", conn.LocalAddr(), netfabric.ErrBadFrame)
	if !strings.Contains(log, wantReject) {
		t.Errorf("log lacks %q:\n%s", wantReject, log)
	}
	if n := strings.Count(log, "rejected:"); n != 1 {
		t.Errorf("%d rejection lines, want 1 (an idle close is not a rejection):\n%s", n, log)
	}
	if want := "worker served 1 sessions (1 frames, 109 B relayed), rejected 1"; !strings.Contains(log, want) {
		t.Errorf("log lacks the shutdown totals %q:\n%s", want, log)
	}
}
