package netfabric

import (
	"context"
	"fmt"
	"sync"

	"matopt/internal/obs"
)

// Chan returns the in-process transport, the dist runtime's default: its
// sessions have no peer links, so every message lands straight in its
// shard's inbox. It holds no resources; Close is a no-op and one
// instance may serve any number of runs concurrently.
func Chan() Transport { return inProcess{} }

type inProcess struct{}

func (inProcess) Name() string { return "chan" }

func (inProcess) Close() error { return nil }

func (inProcess) Open(_ context.Context, _ *obs.Registry, _ ExchangeID, shards int) (Session, error) {
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
	err := l.writeLocked(s.t.ioTimeout, func(buf []byte) ([]byte, error) { return shardMessageFrame(buf, frameMsg, dst, m) })
	if err != nil {
		return err
	}
	l.msgs.Inc()
	return nil
}

// Collect finishes every link concurrently — FIN, flush, then stream
// the worker's buffered inboxes back into recv — and returns the inboxes.
// Distinct peers host disjoint shards, so the per-link readers write
// disjoint recv slots.
func (s *session) Collect() ([][]Message, error) {
	recv := s.inbox
	s.inbox = nil
	var wg sync.WaitGroup
	for _, l := range s.links {
		wg.Add(1)
		go func(l *peerLink) {
			defer wg.Done()
			s.t.collectLink(l, recv)
		}(l)
	}
	wg.Wait()
	var firstErr error
	for _, l := range s.links {
		l.mu.Lock()
		err, conn := l.err, l.conn
		l.conn = nil
		l.mu.Unlock()
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		s.t.checkin(l.addr, conn)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return recv, nil
}

// Abandon drops the inboxes and discards every link's connection:
// mid-session state is unknowable after a timeout, so nothing returns
// to the pool.
func (s *session) Abandon() {
	for _, l := range s.links {
		l.mu.Lock()
		if l.conn != nil {
			s.t.discard(l.addr, l.conn)
			l.conn = nil
		}
		l.failLocked(fmt.Errorf("%w: session abandoned", ErrWire))
		l.mu.Unlock()
	}
	s.mu.Lock()
	s.inbox = nil
	s.mu.Unlock()
}
