package netfabric

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"matopt/internal/engine"
	"matopt/internal/tensor"
	"matopt/internal/testutil"
)

// startServer runs a worker server on an ephemeral loopback listener
// and returns its address; cleanup closes it.
func startServer(t testing.TB, opts ...ServerOption) (*Server, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	srv := NewServer(opts...)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Close()
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	return srv, ln.Addr().String()
}

func testID(attempt int) ExchangeID {
	return ExchangeID{Vertex: 1, Kind: "shuffle", Label: "shuffle(t)", Attempt: attempt}
}

// TestTCPExchangeRoundTrip pushes messages for every shard through a
// mixed local/remote peer map and checks each inbox holds exactly the
// messages routed to it, bit-identical after the (key, seq) sort.
func TestTCPExchangeRoundTrip(t *testing.T) {
	_, addr := startServer(t)
	tp, err := NewTCP([]string{LocalPeer, addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	const shards = 5
	sess, err := tp.Open(context.Background(), w, testID(0), shards)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := make([][]Message, shards)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for src := 0; src < shards; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				dst := (src + i) % shards
				k := engine.Key{I: int64(src), J: int64(i)}
				m := Message{Key: k, Seq: int64(i), Tuple: denseTuple(k, 2, 3, float64(src*100+i))}
				if err := sess.Send(dst, m); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				mu.Lock()
				want[dst] = append(want[dst], m)
				mu.Unlock()
			}
		}(src)
	}
	wg.Wait()
	got, err := sess.Collect()
	if err != nil {
		t.Fatalf("Collect: %v", err)
	}
	for s := 0; s < shards; s++ {
		SortMessages(got[s])
		SortMessages(want[s])
		if len(got[s]) != len(want[s]) {
			t.Fatalf("shard %d: got %d messages, want %d", s, len(got[s]), len(want[s]))
		}
		for i := range got[s] {
			if !messagesEqual(got[s][i], want[s][i]) {
				t.Fatalf("shard %d message %d differs", s, i)
			}
		}
	}
	if v := w.Dials.Load(); v != 1 {
		t.Fatalf("dials = %d, want 1", v)
	}
	if v := w.Bytes.Load(); v == 0 {
		t.Fatal("no wire bytes metered")
	}
}

// TestTCPConnectionPooling runs sessions back to back and checks the
// second reuses the first's connection instead of dialing again.
func TestTCPConnectionPooling(t *testing.T) {
	_, addr := startServer(t)
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	for attempt := 0; attempt < 3; attempt++ {
		sess, err := tp.Open(context.Background(), w, testID(attempt), 2)
		if err != nil {
			t.Fatalf("Open %d: %v", attempt, err)
		}
		k := engine.Key{I: int64(attempt)}
		if err := sess.Send(1, Message{Key: k, Tuple: denseTuple(k, 1, 1, 1)}); err != nil {
			t.Fatalf("Send %d: %v", attempt, err)
		}
		recv, err := sess.Collect()
		if err != nil {
			t.Fatalf("Collect %d: %v", attempt, err)
		}
		if len(recv[1]) != 1 {
			t.Fatalf("attempt %d: shard 1 got %d messages", attempt, len(recv[1]))
		}
	}
	if v := w.Dials.Load(); v != 1 {
		t.Fatalf("dials = %d after 3 pooled sessions, want 1", v)
	}
	if v := w.Reconnects.Load(); v != 0 {
		t.Fatalf("reconnects = %d, want 0", v)
	}
}

// TestTCPDialRefused sends to a peer that is not listening: Open does
// no I/O and succeeds, and the first Send there fails with ErrWire naming
// the exchange — as does every later use of that link — not a hang or a
// panic.
func TestTCPDialRefused(t *testing.T) {
	tp, err := NewTCP([]string{refusingAddr(t)}, WithIOTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	sess, err := tp.Open(context.Background(), w, testID(0), 2)
	if err != nil {
		t.Fatalf("Open against dead peer: %v, want no error before a Send", err)
	}
	k := engine.Key{I: 1}
	err = sess.Send(1, Message{Key: k, Tuple: denseTuple(k, 1, 1, 1)})
	if !errors.Is(err, ErrWire) || !strings.Contains(err.Error(), testID(0).Label) {
		t.Fatalf("Send against dead peer: got %v, want ErrWire naming %q", err, testID(0).Label)
	}
	if _, err := sess.Collect(); !errors.Is(err, ErrWire) {
		t.Fatalf("Collect after a refused dial: got %v, want ErrWire", err)
	}
	if w.Dials.Load() != 1 || w.Reconnects.Load() != 0 {
		t.Fatalf("%d dials (%d reconnects), want the one refused dial", w.Dials.Load(), w.Reconnects.Load())
	}
}

// refusingAddr is a loopback address nothing listens on any more.
func refusingAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// TestTCPLocalOnlyExchangeDialsNothing: an exchange that sends only to
// the shard this process hosts never touches its worker — it collects
// cleanly though that worker refuses connections, and dials nothing.
func TestTCPLocalOnlyExchangeDialsNothing(t *testing.T) {
	tp, err := NewTCP([]string{LocalPeer, refusingAddr(t)}, WithIOTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	sess, err := tp.Open(context.Background(), w, testID(0), 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	for i := 0; i < 3; i++ {
		k := engine.Key{I: int64(i)}
		if err := sess.Send(0, Message{Key: k, Tuple: denseTuple(k, 2, 2, 1)}); err != nil {
			t.Fatalf("Send to the local shard: %v", err)
		}
	}
	recv, err := sess.Collect()
	if err != nil || len(recv[0]) != 3 || len(recv[1]) != 0 {
		t.Fatalf("Collect: %d local and %d remote messages, err %v; want 3, 0 and no error", len(recv[0]), len(recv[1]), err)
	}
	if w.Dials.Load() != 0 || w.Bytes.Load() != 0 {
		t.Fatalf("a local-only exchange dialed %d times and put %d B on the wire", w.Dials.Load(), w.Bytes.Load())
	}
}

// TestTCPSeveredMidExchange has the server cut the connection at the
// session's first MSG; the failure must surface as ErrWire from Collect (or an
// earlier Send), and the next session must recover over a fresh dial,
// counted as a reconnect.
func TestTCPSeveredMidExchange(t *testing.T) {
	_, addr := startServer(t, SeverSessions(1))
	tp, err := NewTCP([]string{addr}, WithIOTimeout(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	sess, err := tp.Open(context.Background(), w, testID(0), 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	k := engine.Key{I: 1}
	var sendErr error
	for i := 0; i < 10_000 && sendErr == nil; i++ {
		sendErr = sess.Send(1, Message{Key: k, Seq: int64(i), Tuple: denseTuple(k, 8, 8, 1)})
	}
	if sendErr != nil {
		if !errors.Is(sendErr, ErrWire) {
			t.Fatalf("Send on severed conn: got %v, want ErrWire", sendErr)
		}
		sess.Abandon()
	} else if _, err := sess.Collect(); !errors.Is(err, ErrWire) {
		t.Fatalf("Collect on severed conn: got %v, want ErrWire", err)
	}

	// Recovery: session 2 is not severed and must work over a new dial.
	sess, err = tp.Open(context.Background(), w, testID(1), 2)
	if err != nil {
		t.Fatalf("Open after sever: %v", err)
	}
	if err := sess.Send(1, Message{Key: k, Tuple: denseTuple(k, 1, 1, 2)}); err != nil {
		t.Fatalf("Send after sever: %v", err)
	}
	recv, err := sess.Collect()
	if err != nil {
		t.Fatalf("Collect after sever: %v", err)
	}
	if len(recv[1]) != 1 {
		t.Fatalf("shard 1 got %d messages after recovery", len(recv[1]))
	}
	if v := w.Reconnects.Load(); v != 1 {
		t.Fatalf("reconnects = %d, want 1", v)
	}
}

// TestTCPRedialsAfterDiscard: a discarded connection is replaced by a
// dial, counted as a reconnect, even while the pool holds an idle
// connection to the same peer — which a concurrent session may have
// checked in just before a failed session's retry checks one out.
func TestTCPRedialsAfterDiscard(t *testing.T) {
	_, addr := startServer(t)
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	ctx, w := context.Background(), new(Wire)
	failed, err := tp.checkout(ctx, w, addr)
	if err != nil {
		t.Fatal(err)
	}
	healthy, err := tp.checkout(ctx, w, addr)
	if err != nil {
		t.Fatal(err)
	}
	tp.checkin(addr, healthy)
	tp.discard(addr, failed)
	retry, err := tp.checkout(ctx, w, addr)
	if err != nil {
		t.Fatal(err)
	}
	if retry == healthy || w.Dials.Load() != 3 || w.Reconnects.Load() != 1 {
		t.Fatalf("the checkout after a discard reused the idle connection = %v, %d dials (%d reconnects), want a re-dial: 3 (1)",
			retry == healthy, w.Dials.Load(), w.Reconnects.Load())
	}
	tp.checkin(addr, retry)
	if next, err := tp.checkout(ctx, w, addr); err != nil || w.Dials.Load() != 3 {
		t.Fatalf("the checkout after the re-dial: %v, %d dials, want an idle connection", err, w.Dials.Load())
	} else {
		tp.checkin(addr, next)
	}
}

// TestTCPAbandonDiscardsConnections abandons a healthy session that has
// sent to its worker and checks the transport does not pool its
// connection (the next session to send there dials afresh).
func TestTCPAbandonDiscardsConnections(t *testing.T) {
	_, addr := startServer(t)
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	k := engine.Key{I: 1}
	sess, err := tp.Open(context.Background(), w, testID(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Send(1, Message{Key: k, Tuple: denseTuple(k, 1, 1, 1)}); err != nil {
		t.Fatal(err)
	}
	sess.Abandon()
	sess, err = tp.Open(context.Background(), w, testID(1), 2)
	if err != nil {
		t.Fatalf("Open after abandon: %v", err)
	}
	if err := sess.Send(1, Message{Key: k, Tuple: denseTuple(k, 1, 1, 1)}); err != nil {
		t.Fatalf("Send after abandon: %v", err)
	}
	if _, err := sess.Collect(); err != nil {
		t.Fatalf("Collect: %v", err)
	}
	if v := w.Dials.Load(); v != 2 {
		t.Fatalf("dials = %d, want 2 (abandoned conns must not be pooled)", v)
	}
}

// TestServerShutdownLeakFree drives sessions, closes everything, and
// requires the process back at its goroutine baseline: Server.Close
// must tear down the accept loop and every connection handler, and
// TCP.Close every pooled connection.
func TestServerShutdownLeakFree(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		tp, err := NewTCP([]string{LocalPeer, ln.Addr().String()})
		if err != nil {
			t.Fatal(err)
		}
		for attempt := 0; attempt < 2; attempt++ {
			sess, err := tp.Open(context.Background(), new(Wire), testID(attempt), 4)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < 4; d++ {
				k := engine.Key{I: int64(d)}
				if err := sess.Send(d, Message{Key: k, Tuple: denseTuple(k, 2, 2, 1)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := sess.Collect(); err != nil {
				t.Fatal(err)
			}
		}
		if err := tp.Close(); err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
	})
}

// TestTCPClosedTransport checks use after Close fails typed.
func TestTCPClosedTransport(t *testing.T) {
	_, addr := startServer(t)
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	tp.Close()
	if _, err := tp.Open(context.Background(), nil, testID(0), 2); !errors.Is(err, ErrClosed) {
		t.Fatalf("Open after Close: got %v, want ErrClosed", err)
	}
}

// TestTCPConcurrentSessions exchanges on several sessions at once —
// independent DAG vertices do this — each getting its own connection.
func TestTCPConcurrentSessions(t *testing.T) {
	_, addr := startServer(t)
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sess, err := tp.Open(context.Background(), w, testID(i), 3)
			if err != nil {
				errs[i] = err
				return
			}
			for d := 0; d < 3; d++ {
				k := engine.Key{I: int64(i), J: int64(d)}
				if err := sess.Send(d, Message{Key: k, Tuple: denseTuple(k, 2, 2, float64(i))}); err != nil {
					errs[i] = err
					return
				}
			}
			recv, err := sess.Collect()
			if err != nil {
				errs[i] = err
				return
			}
			for d := 0; d < 3; d++ {
				if len(recv[d]) != 1 {
					errs[i] = fmt.Errorf("session %d shard %d: %d messages", i, d, len(recv[d]))
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
	}
}

// TestServerHoldsOneFrame streams a session many times larger than one
// frame through a worker: it must come back whole, bit for bit, while
// the worker's frame buffer never grows past one frame — the buffer the
// connection leaves for the next is exactly one frame long.
func TestServerHoldsOneFrame(t *testing.T) {
	testutil.CheckGoroutines(t, func() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := NewServer()
		done := make(chan error, 1)
		go func() { done <- srv.Serve(ln) }()
		tp, err := NewTCP([]string{ln.Addr().String()}, WithIOTimeout(5*time.Second))
		if err != nil {
			t.Fatal(err)
		}
		k := engine.Key{I: 1}
		big := Message{Key: k, Tuple: denseTuple(k, 64, 64, 1)} // 32 KiB a frame
		frameLen := len(mustFrame(t)(shardMessageFrame(nil, frameMsg, 1, big)))
		const msgs = 64 // 2 MiB a session
		sess, err := tp.Open(context.Background(), new(Wire), testID(0), 2)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < msgs; i++ {
			m := big
			m.Seq = int64(i)
			if err := sess.Send(1, m); err != nil {
				t.Fatalf("Send %d: %v", i, err)
			}
		}
		recv, err := sess.Collect()
		if err != nil || len(recv[1]) != msgs {
			t.Fatalf("Collect: %d messages, err %v", len(recv[1]), err)
		}
		for i, m := range recv[1] {
			want := big
			want.Seq = int64(i)
			if !messagesEqual(m, want) {
				t.Fatalf("message %d came back altered", i)
			}
		}
		tp.Close()
		srv.Close()
		if err := <-done; err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if st := srv.Stats(); st.Sessions != 1 || st.Frames != msgs || st.Rejected != 0 {
			t.Fatalf("stats %+v, want 1 served session of %d frames", st, msgs)
		}
		if len(srv.bufs) != 1 {
			t.Fatalf("%d frame buffers left for the next connection, want 1", len(srv.bufs))
		}
		if buf := <-srv.bufs; cap(buf) != frameLen {
			t.Fatalf("worker frame buffer holds %d B, one frame is %d B", cap(buf), frameLen)
		}
	})
}

// TestServerRefusesVersions1And2 is what frame version 3 means to a
// worker: a version 1 or 2 coordinator began each session with an OPEN
// frame, and whatever frame such a coordinator sends first is refused by
// its version byte with ErrBadFrame, counted as one rejected session and
// logged as one line naming the peer.
func TestServerRefusesVersions1And2(t *testing.T) {
	lines := make(chan string, 8)
	srv, addr := startServer(t, func(s *Server) {
		s.Logf = func(format string, args ...any) { lines <- fmt.Sprintf(format, args...) }
	})
	k := engine.Key{I: 1}
	for _, version := range []byte{1, 2} {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		msg := mustFrame(t)(shardMessageFrame(nil, frameMsg, 1, Message{Key: k, Tuple: denseTuple(k, 1, 1, 1)}))
		msg[2] = version
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		line := <-lines
		if !strings.Contains(line, conn.LocalAddr().String()) || !strings.Contains(line, ErrBadFrame.Error()) ||
			!strings.Contains(line, fmt.Sprintf("version %d", version)) {
			t.Fatalf("rejection line %q names neither the peer %s, ErrBadFrame nor version %d", line, conn.LocalAddr(), version)
		}
	}
	srv.Close()
	if st := srv.Stats(); st.Rejected != 2 || st.Sessions != 0 {
		t.Fatalf("stats %+v, want 2 rejected and no session served", st)
	}
	if len(lines) != 0 {
		t.Fatalf("unexpected extra log line %q", <-lines)
	}
}

// TestServerStats checks what a worker says about itself: served
// sessions, relayed frames and their wire bytes are counted; a pooled
// connection closed while idle is not a rejection and logs nothing; a
// peer that speaks garbage is one, logged with its address and the typed
// error.
func TestServerStats(t *testing.T) {
	lines := make(chan string, 8) // more than the one line expected, so an extra never blocks a handler
	srv, addr := startServer(t, func(s *Server) {
		s.Logf = func(format string, args ...any) { lines <- fmt.Sprintf(format, args...) }
	})
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	w := new(Wire)
	sess, err := tp.Open(context.Background(), w, testID(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	var relayed int64
	for d := 0; d < 2; d++ {
		k := engine.Key{I: int64(d)}
		m := Message{Key: k, Tuple: denseTuple(k, 3, 3, 1)}
		if err := sess.Send(d, m); err != nil {
			t.Fatal(err)
		}
		relayed += int64(len(mustFrame(t)(shardMessageFrame(nil, frameMsg, d, m))))
	}
	if _, err := sess.Collect(); err != nil {
		t.Fatal(err)
	}
	tp.Close() // the pooled connection closes while idle: not a rejection

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("GET / HTTP/1.1\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	line := <-lines
	if !strings.Contains(line, conn.LocalAddr().String()) || !strings.Contains(line, ErrBadFrame.Error()) {
		t.Fatalf("rejection line %q names neither the peer %s nor ErrBadFrame", line, conn.LocalAddr())
	}
	srv.Close() // waits for every handler, so the counters are final
	if want := (ServerStats{Sessions: 1, Frames: 2, Bytes: relayed, Rejected: 1}); srv.Stats() != want {
		t.Fatalf("stats %+v, want %+v", srv.Stats(), want)
	}
	if len(lines) != 0 {
		t.Fatalf("unexpected extra log line %q", <-lines)
	}
}

// TestTCPSessionAllocBudget pins what one pass per byte means in the
// allocator: on a warm pooled connection, a session of 16 dense 256×256
// tuples allocates little more than the 16 decoded tuples the engine
// keeps — coordinator and in-process worker together — and a number of
// objects proportional to the messages, because every payload is sent
// from its tuple's storage, echoed from a frame buffer its worker
// connection reuses, and decoded into the storage drawn for it. Then the
// other side of reuse: a buffer grown past maxIdleBuf is kept neither
// by the pooled connection nor by the worker.
func TestTCPSessionAllocBudget(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	srv, addr := startServer(t)
	tp, err := NewTCP([]string{addr})
	if err != nil {
		t.Fatal(err)
	}
	defer tp.Close()
	w := new(Wire)
	k := engine.Key{I: 1}
	session := func(attempt, msgs int, tuple engine.Tuple) {
		t.Helper()
		sess, err := tp.Open(context.Background(), w, testID(attempt), 2)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		for i := 0; i < msgs; i++ {
			if err := sess.Send(1, Message{Key: k, Seq: int64(i), Tuple: tuple}); err != nil {
				t.Fatalf("Send: %v", err)
			}
		}
		recv, err := sess.Collect()
		if err != nil || len(recv[1]) != msgs {
			t.Fatalf("Collect: %d messages, err %v", len(recv[1]), err)
		}
	}
	const msgs = 16
	tuple := denseTuple(k, 256, 256, 1)
	session(0, msgs, tuple)
	session(1, msgs, tuple)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	session(2, msgs, tuple)
	runtime.ReadMemStats(&after)
	decoded := uint64(msgs * tuple.Dense.Bytes())
	if got := after.TotalAlloc - before.TotalAlloc; got > decoded*5/4 {
		t.Errorf("warm session allocated %d B, more than 1.25 × the %d B of its decoded tuples", got, decoded)
	}
	if got := after.Mallocs - before.Mallocs; got > 16*msgs {
		t.Errorf("warm session allocated %d objects for %d messages", got, msgs)
	}

	session(3, 1, denseTuple(k, 1, maxIdleBuf/8+1, 1))
	tp.mu.Lock()
	if len(tp.idle[addr]) != 1 {
		t.Fatalf("%d pooled connections, want 1", len(tp.idle[addr]))
	}
	if c := tp.idle[addr][0]; cap(c.wbuf) > maxIdleBuf || cap(c.fr.buf) > maxIdleBuf {
		t.Errorf("pooled connection kept %d B send and %d B read buffers, bound %d", cap(c.wbuf), cap(c.fr.buf), maxIdleBuf)
	}
	tp.mu.Unlock()
	tp.Close()
	srv.Close() // every handler has returned its frame buffer, or dropped it
	for len(srv.bufs) > 0 {
		if buf := <-srv.bufs; cap(buf) > maxIdleBuf {
			t.Errorf("worker kept a %d B frame buffer, bound %d", cap(buf), maxIdleBuf)
		}
	}
}

// BenchmarkTCPSession is one warm session at the shape of the
// benchmark's chain_dist_tcp plan — 17 messages of 2.6 MB, 13 of them to
// the remote shard (33.6 MB out and back) and 4 to the local one: Open ·
// Send × 17 · Collect through a loopback worker, reported as remote
// payload MB/s each way (every remote byte goes out and comes back).
// The received arrays go back to the free list, as a dist run's do.
func BenchmarkTCPSession(b *testing.B) {
	_, addr := startServer(b)
	tp, err := NewTCP([]string{LocalPeer, addr})
	if err != nil {
		b.Fatal(err)
	}
	defer tp.Close()
	const remote, local = 13, 4
	k := engine.Key{I: 1}
	tuple := denseTuple(k, 1, 2_600_000/8, 1)
	session := func(attempt int) {
		sess, err := tp.Open(context.Background(), nil, testID(attempt), 2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < remote+local; i++ {
			dst := 1
			if i < local {
				dst = 0
			}
			if err := sess.Send(dst, Message{Key: k, Seq: int64(i), Tuple: tuple}); err != nil {
				b.Fatal(err)
			}
		}
		recv, err := sess.Collect()
		if err != nil || len(recv[0]) != local || len(recv[1]) != remote {
			b.Fatalf("Collect: %d local and %d remote messages, err %v", len(recv[0]), len(recv[1]), err)
		}
		// A run recycles what it received once consumed: the decoder
		// drew each remote tuple's array from the free list. Local
		// messages share the sent tuple and are not released.
		for _, m := range recv[1] {
			tensor.Release(m.Tuple.Dense)
		}
	}
	session(0)
	b.ReportAllocs()
	b.SetBytes(remote * tuple.Dense.Bytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		session(i + 1)
	}
}
