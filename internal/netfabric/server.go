package netfabric

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server is the worker side of the TCP transport: it hosts the exchange
// inboxes of remote shards. Each accepted connection serves sessions
// back to back, each begun by its first MSG frame: every MSG is
// validated and echoed back as an INBOX frame as soon as it is (no tuple
// is ever built), and at FIN an EOF, after which the connection is idle
// and the coordinator may pool it. A worker holds one frame per
// connection, never a session, and indexes nothing by shard: the
// coordinator's reader refuses an INBOX for a shard its peer does not
// host.
//
// cmd/matoptd runs one of these per worker process (-worker -listen);
// tests run it in-process on a loopback listener, which exercises the
// identical code path hermetically.
type Server struct {
	// Logf, when set before Serve, receives one line per rejected
	// session: the peer's address and the typed error that ended it.
	Logf func(format string, args ...any)

	sever                           map[int64]bool
	closeAfter                      int64
	sessions                        atomic.Int64 // begun; numbers them for fault injection
	served, frames, bytes, rejected atomic.Int64 // see ServerStats

	// bufs holds the frame buffers of closed connections for new ones to
	// take: a coordinator dials anew for every run.
	bufs chan []byte

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// idleFrameBufs bounds how many frame buffers (each at most maxIdleBuf)
// a worker keeps between connections.
const idleFrameBufs = 4

// ServerStats counts what a worker has done since it started: Sessions
// served through to EOF, the Frames relayed and their Bytes on the wire,
// and sessions Rejected — ended by an error (a malformed or hostile
// frame, a connection cut mid-session); a pooled connection closed while
// idle is not one. A session begins at its first MSG, so every session
// served carried data.
type ServerStats struct{ Sessions, Frames, Bytes, Rejected int64 }

// Stats reports the server's counters; safe to call at any time.
func (s *Server) Stats() ServerStats {
	return ServerStats{s.served.Load(), s.frames.Load(), s.bytes.Load(), s.rejected.Load()}
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// SeverSessions injects a network fault for chaos testing: the n-th
// session (1-based, counted across all connections) has its connection
// severed at its first MSG — the coordinator sees a connection reset
// mid-exchange.
func SeverSessions(nums ...int) ServerOption {
	return func(s *Server) {
		for _, n := range nums {
			s.sever[int64(n)] = true
		}
	}
}

// CloseAfterSessions injects a network fault for chaos testing: after
// serving n sessions the server shuts down completely — every
// connection (pooled ones included) dies and further dials are refused,
// modelling a worker that leaves mid-run.
func CloseAfterSessions(n int) ServerOption {
	return func(s *Server) { s.closeAfter = int64(n) }
}

// NewServer builds a worker server; call Serve to run it.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		sever: make(map[int64]bool),
		conns: make(map[net.Conn]struct{}),
		bufs:  make(chan []byte, idleFrameBufs),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Serve accepts connections on ln until Close, handling each on its own
// goroutine. It owns ln and returns nil after a clean Close.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		// Close already ran (or runs concurrently with startup): a
		// clean shutdown, not an error.
		s.mu.Unlock()
		ln.Close()
		return nil
	}
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return nil
			}
			return fmt.Errorf("netfabric: accept: %w", err)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return nil
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.handle(conn)
		}()
	}
}

// Close shuts the server and waits for all handlers to exit — after it
// returns the server has no goroutines left, which the leak-checked
// shutdown test asserts. It waits even when the server was already shut.
func (s *Server) Close() error {
	s.shut()
	s.wg.Wait()
	return nil
}

// shut stops accepting and severs every live connection without waiting
// for the handlers, so a handler may call it.
func (s *Server) shut() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	if s.ln != nil {
		s.ln.Close()
	}
	for conn := range s.conns {
		conn.Close()
	}
}

func (s *Server) release(conn net.Conn) {
	conn.Close()
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

// handle serves sessions on one connection until it closes or breaks,
// counting and reporting a session that ends in an error — unless that
// is the coordinator closing an idle pooled connection (the normal end
// of life) or this server shutting down. The connection reads into a
// frame buffer an earlier one left, and leaves its own for a later one.
func (s *Server) handle(conn net.Conn) {
	defer s.release(conn)
	br := bufio.NewReaderSize(conn, connBufSize)
	fr := &frameReader{r: br}
	select {
	case fr.buf = <-s.bufs:
	default:
	}
	defer func() {
		if buf := idleBuf(fr.buf); buf != nil {
			select {
			case s.bufs <- buf:
			default:
			}
		}
	}()
	bw := bufio.NewWriterSize(conn, connBufSize)
	for {
		err := s.session(conn, fr, br, bw)
		if err == nil {
			continue
		}
		if err != io.EOF && !errors.Is(err, net.ErrClosed) {
			s.rejected.Add(1)
			if s.Logf != nil {
				s.Logf("netfabric: session from %s rejected: %v", conn.RemoteAddr(), err)
			}
		}
		return
	}
}

// session serves one MSG…, FIN round trip, begun by its first MSG. Each
// MSG frame is read whole into the connection's frame buffer,
// CRC-checked and validated as the decoder would validate it, its type
// byte flipped to INBOX in place, and written straight back; the writer
// is flushed whenever the reader has nothing buffered (the coordinator
// is producing, so what was echoed should reach it now), and at FIN
// after an EOF frame. Any error tears the connection down. Writes are
// bounded by DefaultIOTimeout; reads are not, since the gap between a
// session's frames is the coordinator's produce time.
func (s *Server) session(conn net.Conn, fr *frameReader, br *bufio.Reader, bw *bufio.Writer) error {
	fr.buf = idleBuf(fr.buf) // an oversized buffer is not held while idle
	var num, frames, bytes int64
	for {
		typ, payload, err := fr.next()
		if err == io.EOF && frames > 0 {
			err = io.ErrUnexpectedEOF // between frames, but before FIN
		}
		if err != nil {
			return err // io.EOF before a MSG: pooled connection closed while idle
		}
		if typ == frameFin && frames > 0 {
			break
		}
		if typ != frameMsg {
			return fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, typ)
		}
		if err := checkShardMessage(payload); err != nil {
			return err
		}
		if frames == 0 {
			if num = s.sessions.Add(1); s.sever[num] {
				conn.Close() // injected fault: reset mid-exchange
				return errors.New("netfabric: session severed by fault injection")
			}
		}
		fr.buf[3] = frameInbox
		conn.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
		if _, err := bw.Write(fr.buf); err != nil {
			return err
		}
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		frames++
		bytes += int64(len(fr.buf))
	}
	conn.SetWriteDeadline(time.Now().Add(DefaultIOTimeout))
	if _, err := bw.Write(controlFrame(fr.buf, frameEOF)); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Time{})
	s.served.Add(1)
	s.frames.Add(frames)
	s.bytes.Add(bytes)
	if s.closeAfter > 0 && num >= s.closeAfter {
		// Injected fault: the worker leaves the cluster. Shutting here,
		// before the handler returns, refuses every later dial.
		s.shut()
		return errors.New("netfabric: worker departed by fault injection")
	}
	return nil
}
