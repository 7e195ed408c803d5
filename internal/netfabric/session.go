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
// of the shards this process hosts, plus one link per remote peer
// hosting the rest (none under Chan).
type session struct {
	t     *TCP // nil under Chan
	mu    sync.Mutex
	inbox [][]Message
	links map[string]*peerLink // by peer address; LocalPeer has none
}

// linkOf returns the link to the peer hosting shard dst, nil when this
// process hosts it.
func (s *session) linkOf(dst int) *peerLink {
	if len(s.links) == 0 {
		return nil
	}
	return s.links[s.t.peerOf(dst)]
}

// Send appends to the inbox of a shard this process hosts and writes a
// MSG frame on the hosting peer's link otherwise. In-process delivery
// never fails.
func (s *session) Send(dst int, m Message) error {
	l := s.linkOf(dst)
	if l == nil {
		s.mu.Lock()
		s.inbox[dst] = append(s.inbox[dst], m)
		s.mu.Unlock()
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.sendLocked(s.t.ioTimeout, func(c *wireConn) (int, error) {
		return writeShardMessage(c.bw, c.wbuf, frameMsg, dst, m)
	})
	if err != nil {
		return err
	}
	l.wire.Messages.Add(1)
	return nil
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
				firstErr = err
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
