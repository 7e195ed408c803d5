package netfabric

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// Chan returns the in-process transport, the dist runtime's default: its
// sessions have no peer links, so every message lands straight in its
// shard's inbox. It holds no resources; Close is a no-op and one
// instance may serve any number of runs concurrently.
func Chan() Transport { return inProcess{} }

type inProcess struct{}

func (inProcess) Name() string { return "chan" }

func (inProcess) Close() error { return nil }

func (inProcess) Open(_ context.Context, _ *Wire, _ ExchangeID, shards int) (Session, error) {
	return &session{inbox: make([][]Message, shards)}, nil
}

// session is one exchange in flight under either transport: the inboxes
// of the shards this process hosts, plus one link per remote peer a
// message has been sent to (none under Chan).
type session struct {
	t    *TCP // nil under Chan
	ctx  context.Context
	wire *Wire
	id   ExchangeID

	mu    sync.Mutex
	inbox [][]Message
	links map[string]*peerLink // by peer address; LocalPeer has none
}

// link returns the session's link to the peer at addr, creating it on
// the first send there; that send connects it under the link's lock.
func (s *session) link(addr string) *peerLink {
	s.mu.Lock()
	defer s.mu.Unlock()
	l := s.links[addr]
	if l == nil {
		if s.links == nil {
			s.links = make(map[string]*peerLink)
		}
		l = &peerLink{addr: addr, wire: s.wire, done: make(chan struct{})}
		s.links[addr] = l
	}
	return l
}

// Send appends to the inbox of a shard this process hosts and writes a
// MSG frame on the hosting peer's link otherwise; the first send to a
// peer checks out its connection and starts its reader. In-process
// delivery never fails.
func (s *session) Send(dst int, m Message) error {
	if s.t == nil || s.t.peerOf(dst) == LocalPeer {
		s.mu.Lock()
		s.inbox[dst] = append(s.inbox[dst], m)
		s.mu.Unlock()
		return nil
	}
	l := s.link(s.t.peerOf(dst))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.conn == nil && l.err == nil {
		if l.conn, l.err = s.t.checkout(s.ctx, s.wire, l.addr); l.err != nil {
			close(l.done) // no reader will run
		} else {
			go s.read(l, l.conn)
		}
	}
	err := l.sendLocked(s.t.ioTimeout, func(c *wireConn) (int, error) {
		return writeShardMessage(c.bw, c.wbuf, frameMsg, dst, m)
	})
	if err != nil {
		return s.named(err)
	}
	l.wire.Messages.Add(1)
	return nil
}

// named prefixes a link's failure with the exchange it failed.
func (s *session) named(err error) error {
	return fmt.Errorf("%s %q at vertex %d, attempt %d: %w", s.id.Kind, s.id.Label, s.id.Vertex, s.id.Attempt, err)
}

// Collect finishes every link — FIN, flush, then wait under the I/O
// deadline for its reader to reach the worker's EOF — and returns the
// inboxes. A link that failed, on either side, discards its connection;
// the rest go back to the pool.
func (s *session) Collect() ([][]Message, error) {
	for _, l := range s.links {
		l.finish(s.t.ioTimeout)
	}
	var firstErr error
	for _, l := range s.links {
		<-l.done
		err := l.err
		if err == nil {
			err = l.readErr
		}
		if err != nil {
			if firstErr == nil {
				firstErr = s.named(err)
			}
			s.t.discard(l.addr, l.conn)
			continue
		}
		l.conn.nc.SetReadDeadline(time.Time{})
		s.t.checkin(l.addr, l.conn)
	}
	recv := s.inbox
	s.inbox = nil
	if firstErr != nil {
		return nil, firstErr
	}
	return recv, nil
}

// Abandon drops the inboxes and discards every link's connection once
// its reader has stopped: mid-session state is unknowable after a
// failure, so nothing returns to the pool.
func (s *session) Abandon() {
	for _, l := range s.links {
		l.mu.Lock()
		if l.err == nil {
			l.err = fmt.Errorf("%w: session abandoned", ErrWire)
		}
		s.t.discard(l.addr, l.conn)
		l.mu.Unlock()
		<-l.done
	}
	s.mu.Lock()
	s.inbox = nil
	s.mu.Unlock()
}
