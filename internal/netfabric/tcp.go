package netfabric

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"strings"
	"sync"
	"time"
)

// LocalPeer is the peer-map entry meaning "this shard lives on the
// coordinator": its messages never touch a socket (or the wire meters).
const LocalPeer = "local"

// DefaultIOTimeout bounds every socket operation — dial, frame write,
// frame read — so a severed or stalled link always surfaces as an error
// instead of wedging a shard's producer; the dist runtime then maps it
// onto its retry ladder. It is the only bound on a stalled wire: the
// runtime keeps no exchange timer of its own.
const DefaultIOTimeout = 30 * time.Second

// connBufSize is the bufio depth on each side of a connection: small
// frames coalesce into it so an exchange of many small tuples reaches
// the kernel in few large writes; a payload larger than it passes
// between socket and storage uncopied.
const connBufSize = 64 << 10

// TCP is the socket transport: shard s is hosted by peers[s % len(peers)],
// where each entry is either a worker address ("127.0.0.1:7070") or
// LocalPeer. Messages routed to a remote-hosted shard are framed to
// that worker, which echoes each one back as soon as it has checked it;
// a reader per link decodes the echoes, while producers are still
// sending, into the session's per-shard inboxes, where LocalPeer shards'
// messages already are — the fabric's (key, seq) sort then erases any
// arrival-order difference, keeping outputs bit-identical across
// transports.
//
// A session talks only to the workers it sends to: Open does no I/O, and
// the first message to a worker checks out a connection from the per-peer
// pool (dialing when it is dry), which a clean Collect returns. Failed or
// abandoned connections are discarded, and the next checkout to that peer
// dials a replacement, counted as a reconnect, rather than trust an idle
// connection to a peer that has just failed one.
type TCP struct {
	peers     []string
	ioTimeout time.Duration

	mu     sync.Mutex
	idle   map[string][]*wireConn
	broken map[string]int // discarded conns per peer, pending re-dial
	closed bool
}

// TCPOption configures a TCP transport.
type TCPOption func(*TCP)

// WithIOTimeout overrides DefaultIOTimeout for every socket operation.
func WithIOTimeout(d time.Duration) TCPOption {
	return func(t *TCP) {
		if d > 0 {
			t.ioTimeout = d
		}
	}
}

// NewTCP builds the socket transport over the given peer map. At least
// one peer is required; an all-LocalPeer map is legal (and pointless).
func NewTCP(peers []string, opts ...TCPOption) (*TCP, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("netfabric: NewTCP requires at least one peer")
	}
	for _, p := range peers {
		if strings.TrimSpace(p) == "" {
			return nil, fmt.Errorf("netfabric: empty peer address")
		}
	}
	t := &TCP{
		peers:     append([]string(nil), peers...),
		ioTimeout: DefaultIOTimeout,
		idle:      make(map[string][]*wireConn),
		broken:    make(map[string]int),
	}
	for _, o := range opts {
		o(t)
	}
	return t, nil
}

// Name identifies the transport in reports and span tags.
func (t *TCP) Name() string { return "tcp" }

// PeerList renders the shard→peer map for span tags and reports.
func (t *TCP) PeerList() string { return strings.Join(t.peers, ",") }

func (t *TCP) peerOf(shard int) string { return t.peers[shard%len(t.peers)] }

// Close discards every pooled connection and refuses further sessions.
func (t *TCP) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	for _, conns := range t.idle {
		for _, c := range conns {
			c.nc.Close()
		}
	}
	t.idle = nil
	return nil
}

// wireConn is one pooled connection with what it reuses from session to
// session: fr reads (its buffer holds a frame's fixed fields, never a
// payload), bw writes, and wbuf is where a frame's header and fixed
// fields are built.
type wireConn struct {
	nc   net.Conn
	fr   frameReader
	bw   *bufio.Writer
	wbuf []byte
}

// checkout returns a pooled connection to addr, dialing when the pool
// is dry or a connection to addr was discarded since its last re-dial:
// each discard is replaced by exactly one dial, whatever else the pool
// holds. Dials (and those re-dials) are metered into w.
func (t *TCP) checkout(ctx context.Context, w *Wire, addr string) (*wireConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	redial := t.broken[addr] > 0
	if redial {
		t.broken[addr]--
	} else if conns := t.idle[addr]; len(conns) > 0 {
		c := conns[len(conns)-1]
		t.idle[addr] = conns[:len(conns)-1]
		t.mu.Unlock()
		return c, nil
	}
	t.mu.Unlock()
	d := net.Dialer{Timeout: t.ioTimeout}
	w.Dials.Add(1)
	if redial {
		w.Reconnects.Add(1)
	}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("%w: dial %s: %v", ErrWire, addr, err)
	}
	return &wireConn{
		nc:   nc,
		fr:   frameReader{r: bufio.NewReaderSize(nc, connBufSize)},
		bw:   bufio.NewWriterSize(nc, connBufSize),
		wbuf: make([]byte, 0, frameHeaderLen+fixedLen(payloadCSR)+frameTrailerLen),
	}, nil
}

// checkin pools a connection, less any oversized buffer, after a clean session.
func (t *TCP) checkin(addr string, c *wireConn) {
	c.wbuf, c.fr.buf = idleBuf(c.wbuf), idleBuf(c.fr.buf)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		c.nc.Close()
		return
	}
	t.idle[addr] = append(t.idle[addr], c)
}

// discard closes a connection whose session failed or was abandoned;
// the replacement dial will be counted as a reconnect. A link whose dial
// failed has no connection to discard.
func (t *TCP) discard(addr string, c *wireConn) {
	if c == nil {
		return
	}
	c.nc.Close()
	t.mu.Lock()
	t.broken[addr]++
	t.mu.Unlock()
}

// Open starts a session without touching a socket: a session connects
// to a worker at its first Send there, so an exchange that sends a
// worker nothing costs that worker nothing. A refused dial fails that
// Send with an ErrWire-wrapped error — the dist runtime retries the
// vertex like any exchange timeout.
func (t *TCP) Open(ctx context.Context, w *Wire, id ExchangeID, shards int) (Session, error) {
	t.mu.Lock()
	closed := t.closed
	t.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if w == nil {
		w = new(Wire)
	}
	return &session{t: t, ctx: ctx, wire: w, id: id, inbox: make([][]Message, shards)}, nil
}

// peerLink is one session's connection to one worker. Sends from
// concurrent producers serialize on mu, and the first dial or write
// error latches in err and fails every later use of the link. The link's
// reader runs from its first Send until EOF or its first error, which it
// leaves in readErr before closing done.
type peerLink struct {
	addr string
	wire *Wire

	done    chan struct{}
	readErr error

	mu   sync.Mutex
	conn *wireConn
	err  error
}

// sendLocked writes one frame on the link — write puts it into the
// connection's bufio.Writer and returns its length — and meters its wire
// bytes; the caller holds the link lock. The deadline covers the
// implicit bufio flush, so a stalled socket surfaces here rather than
// wedging the producer.
func (l *peerLink) sendLocked(ioTimeout time.Duration, write func(c *wireConn) (int, error)) error {
	if l.err != nil {
		return l.err
	}
	l.conn.nc.SetWriteDeadline(time.Now().Add(ioTimeout))
	n, err := write(l.conn)
	if err != nil {
		l.err = fmt.Errorf("%w: write to %s: %v", ErrWire, l.addr, err)
		return l.err
	}
	l.wire.Bytes.Add(int64(n))
	return nil
}

// finish ends the send side of the link: FIN, flush, and a read deadline
// by which the worker's EOF must have arrived. On a link that already
// failed it closes the connection, if it has one, so the reader stops.
func (l *peerLink) finish(ioTimeout time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	err := l.sendLocked(ioTimeout, func(c *wireConn) (int, error) {
		f := controlFrame(c.wbuf, frameFin)
		c.wbuf = f
		n, err := c.bw.Write(f)
		if err == nil {
			err = c.bw.Flush()
		}
		return n, err
	})
	if err == nil {
		l.conn.nc.SetReadDeadline(time.Now().Add(ioTimeout))
	} else if l.conn != nil {
		l.conn.nc.Close()
	}
}

// read is a link's reader: it decodes the worker's INBOX frames into the
// inboxes of the shards that worker hosts until EOF. Its first error is
// left in readErr and closes the connection, so a producer blocked on a
// dead worker fails at once.
func (s *session) read(l *peerLink, c *wireConn) {
	defer close(l.done)
	fail := func(err error) {
		l.readErr = err
		c.nc.Close()
	}
	for {
		typ, err := c.fr.header()
		if err != nil {
			fail(fmt.Errorf("%w: read from %s: %v", ErrWire, l.addr, err))
			return
		}
		switch typ {
		case frameInbox:
			shard, m, err := c.fr.message()
			if err != nil {
				fail(fmt.Errorf("%w: read from %s: %v", ErrWire, l.addr, err))
				return
			}
			if shard >= len(s.inbox) || s.t.peerOf(shard) != l.addr {
				fail(fmt.Errorf("%w: peer %s returned inbox for shard %d it does not host", ErrWire, l.addr, shard))
				return
			}
			s.inbox[shard] = append(s.inbox[shard], m)
			l.wire.Messages.Add(1)
		case frameEOF:
			if _, err := c.fr.body(); err != nil {
				fail(fmt.Errorf("%w: read from %s: %v", ErrWire, l.addr, err))
				return
			}
		default:
			fail(fmt.Errorf("%w: peer %s sent unexpected frame type %d", ErrWire, l.addr, typ))
			return
		}
		l.wire.Bytes.Add(int64(frameHeaderLen + c.fr.n + frameTrailerLen))
		if typ == frameEOF {
			return
		}
	}
}
