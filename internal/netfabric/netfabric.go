// Package netfabric is the pluggable exchange transport under the dist
// runtime's shuffle fabric. The fabric in internal/dist decides *what*
// moves (which tuples, to which shard, metered how); a Transport decides
// *how* the bytes get there. Both transports open one session type: the
// inboxes of the shards this process hosts plus a link per remote peer
// that the session has sent a message to.
//
//   - Chan, the default, has no links: every message is appended to its
//     shard's inbox.
//   - TCP maps shards onto peer worker processes (cmd/matoptd -worker)
//     and moves every message to a remote-hosted shard over a real
//     socket: length-prefixed binary frames (codec.go), per-peer
//     connection pooling, coalesced writes, and read loops that fill the
//     same inboxes. A session touches a worker only once it sends that
//     worker a message, so an exchange costs the workers it sends
//     nothing no round trip. Wire traffic is metered into the
//     caller's Wire (bytes, messages, dials, reconnects), which the dist
//     runtime reports next to its exchange traffic.
//
// Determinism carries across transports because the fabric sorts every
// shard's inbox by (Key, Seq) before any reduce replays it — arrival
// order over a socket is as irrelevant as arrival order in process,
// and the dist runtime's outputs stay bit-identical to the sequential
// engine. Transport failures (dial refused, connection reset, I/O
// deadline) surface as errors wrapping ErrWire; the dist runtime maps
// them onto its ErrExchangeTimeout retry/fallback ladder, so
// fault tolerance carries over to the wire for free (DESIGN.md §16).
package netfabric

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"

	"matopt/internal/engine"
)

// Message is one tuple in flight plus its deterministic reduce
// position: Seq is the contraction index of a partial result, so the
// receiving shard can sort contributions into the exact order the
// sequential engine folds them in. Within one exchange (Key, Seq) is
// unique, which is what makes arrival order irrelevant.
type Message struct {
	// Key is the tuple's chunk coordinate.
	Key engine.Key
	// Seq orders same-key contributions for the deterministic reduce.
	Seq int64
	// Tuple is the payload.
	Tuple engine.Tuple
}

// ExchangeID names one exchange session for framing, tracing and
// failure messages: the consuming vertex, the movement kind and label
// the fabric meters under, and the attempt number (retries reopen the
// same logical exchange with a fresh session).
type ExchangeID struct {
	// Vertex is the consuming vertex's ID.
	Vertex int
	// Kind is the movement pattern (broadcast, shuffle, aggregate, ...).
	Kind string
	// Label is the fabric's human-readable exchange label.
	Label string
	// Attempt is the consuming vertex's attempt number.
	Attempt int
}

// Wire is what a transport's sessions put on real sockets, summed over
// every peer: framed bytes and messages in both directions, dials, and
// the dials that replaced a connection discarded after a failure. The
// in-process transport never touches it.
type Wire struct {
	// Bytes, Messages, Dials and Reconnects are running totals.
	Bytes, Messages, Dials, Reconnects atomic.Int64
}

// Typed failure surface of the transport layer.
var (
	// ErrWire reports a transport-level failure: a refused dial, a
	// connection reset or severed mid-exchange, an I/O deadline, or a
	// corrupt frame from a peer. Wire failures are transient from the
	// dist runtime's point of view — it maps them onto its
	// ErrExchangeTimeout retry ladder.
	ErrWire = errors.New("netfabric: wire failure")
	// ErrBadFrame reports a malformed wire frame: short read, bad magic,
	// unsupported version, checksum mismatch, or a payload whose
	// declared sizes do not add up. The codec returns it (wrapped with
	// detail) instead of ever panicking on hostile input.
	ErrBadFrame = errors.New("netfabric: bad frame")
	// ErrClosed reports use of a transport after Close.
	ErrClosed = errors.New("netfabric: transport closed")
)

// Session is one exchange in flight: producers Send messages to
// destination shards, then exactly one of Collect or Abandon finishes
// the session. Send is safe for concurrent use; Collect and Abandon are
// not, and must be called only after every producer has returned.
type Session interface {
	// Send delivers one message to shard dst's inbox. It may dial, or
	// block on a busy socket, and returns an error wrapping ErrWire when
	// the transport fails.
	Send(dst int, m Message) error
	// Collect closes the send side, waits for every inbox to settle,
	// and returns each shard's received messages in arrival order (the
	// fabric sorts). The session must not be used afterwards.
	Collect() ([][]Message, error)
	// Abandon releases the session's resources without collecting —
	// the path of a failed or cancelled producer. Buffered messages are
	// dropped; a TCP session's connections are discarded rather than
	// pooled.
	Abandon()
}

// Transport moves exchange messages between shards. Implementations
// must allow concurrent sessions (independent DAG vertices exchange
// concurrently) and keep Open cheap — it runs once per exchange.
type Transport interface {
	// Name tags spans and reports: "chan" or "tcp".
	Name() string
	// Open starts a session for one exchange across shards inboxes. It
	// does no I/O: a TCP session connects to a worker at its first Send
	// there, and names id in the wire errors it returns. Socket traffic
	// is added to w; a nil w meters nothing.
	Open(ctx context.Context, w *Wire, id ExchangeID, shards int) (Session, error)
	// Close releases long-lived resources (pooled connections). The
	// transport must not be used afterwards.
	Close() error
}

// SortMessages orders a shard's received messages by (Key, Seq) — the
// deterministic reduce-replay order every transport's inbox is sorted
// into before the dist runtime folds it.
func SortMessages(ms []Message) {
	sort.Slice(ms, func(i, j int) bool {
		if ms[i].Key.I != ms[j].Key.I {
			return ms[i].Key.I < ms[j].Key.I
		}
		if ms[i].Key.J != ms[j].Key.J {
			return ms[i].Key.J < ms[j].Key.J
		}
		return ms[i].Seq < ms[j].Seq
	})
}
