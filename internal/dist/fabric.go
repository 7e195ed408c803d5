package dist

import (
	"errors"
	"fmt"
	"sync/atomic"

	"matopt/internal/engine"
	"matopt/internal/netfabric"
	"matopt/internal/tensor"
)

// message is one tuple in flight plus its deterministic reduce
// position: Seq is the contraction index of a partial result, so the
// receiving shard can sort contributions into the one order every
// runtime folds them in. The type lives in netfabric so transports can
// frame it.
type message = netfabric.Message

// routed is a message with an explicit destination shard.
type routed struct {
	dst int
	msg message
}

// meter counts the traffic of one exchange identity (vertex, kind,
// label) — one row of the Report's exchange breakdown. Only payloads
// that cross a shard boundary are counted (local delivery is free, as
// on a cluster). A retried vertex asks for the same identity again and
// gets the same meter, so recovery traffic lands in the exchange it
// belongs to rather than in a duplicate row.
type meter struct{ bytes, msgs atomic.Int64 }

func (m *meter) count(t engine.Tuple) {
	m.bytes.Add(t.Bytes())
	m.msgs.Add(1)
}

// meterFor returns the run's meter for one exchange identity, creating
// it on first use.
func (r *run) meterFor(x engine.Xfer) *meter {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.meters[x]
	if m == nil {
		m = new(meter)
		r.meters[x] = m
	}
	return m
}

// exchange is the fabric's one movement primitive, the body of both
// Mover movements (Exchange and Reduce): produce runs on every
// shard as a pool task (so its compute is attributed to the shard) and
// emits messages with explicit destinations; deliveries to another shard
// go through the run's Transport session into per-shard inboxes —
// directly by default, over a framed TCP stream for shards on
// Config.Peers workers. A shard's messages to itself never enter the
// session, so they cost nothing on any transport (and are not metered):
// they join its inbox once the session is collected. Returns
// the per-shard received messages sorted by (key, seq) — the
// deterministic order every reduce replays, which is what makes the
// output independent of the transport's arrival order.
//
// Failure semantics: a drop fault discards a producing shard's
// messages in flight; since receivers cannot tell lost data from a dead
// link, the loss surfaces as ErrExchangeTimeout on the consuming vertex,
// which the scheduler retries. Wire failures (a refused dial, a
// connection severed mid-exchange, an I/O deadline) are likewise
// transient network weather, so they map onto the same
// ErrExchangeTimeout and ride the retry → fallback ladder.
// The exchange ends when its producers return and keeps no clock of its
// own: the chan transport cannot stall, and the TCP transport bounds
// every socket operation with its I/O deadline (DESIGN.md §16).
func (r *exec) exchange(x engine.Xfer, produce func(shard int) ([]routed, error)) ([][]message, error) {
	m := r.meterFor(x)
	tp := r.cfg.Transport
	xspan := r.tr.Start(r.span, "exchange").
		SetStr("kind", x.Kind).SetStr("label", x.Label).SetInt("vertex", int64(x.Vertex)).
		SetStr("transport", tp.Name())
	if pl, ok := tp.(interface{ PeerList() string }); ok {
		xspan.SetStr("peers", pl.PeerList())
	}
	defer xspan.End()
	n := r.Shards()
	id := netfabric.ExchangeID{Vertex: x.Vertex, Kind: x.Kind, Label: x.Label, Attempt: r.attempt}
	sess, err := tp.Open(r.ctx, &r.net, id, n)
	if err != nil {
		return nil, r.wireErr(x, "open", err)
	}
	drop := r.cfg.FaultPlan.drop(x.Vertex, x.Label, r.attempt)
	if drop != nil {
		r.faults.Add(1)
	}
	var lost atomic.Bool
	own := make([][]message, n) // each shard's messages to itself
	err = r.Parallel(func(s int) error {
		out, err := produce(s)
		if err != nil {
			return err
		}
		if drop != nil && (drop.Shard == -1 || drop.Shard == s) {
			lost.Store(true)
			return nil // the messages vanish in flight
		}
		for i, rm := range out {
			if i%256 == 0 {
				if err := r.ctx.Err(); err != nil {
					return err
				}
			}
			if rm.dst < 0 || rm.dst >= n {
				return fmt.Errorf("dist: message routed to shard %d of %d", rm.dst, n)
			}
			if rm.dst == s {
				own[s] = append(own[s], rm.msg)
				continue
			}
			m.count(rm.msg.Tuple)
			if err := sess.Send(rm.dst, rm.msg); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		// Every producer has returned, so the session's buffers and
		// connections are released even on error or cancel.
		sess.Abandon()
		if errors.Is(err, netfabric.ErrWire) {
			return nil, r.wireErr(x, "send", err)
		}
		return nil, err
	}
	recv, err := sess.Collect()
	if err != nil {
		return nil, r.wireErr(x, "collect", err)
	}
	if lost.Load() {
		return nil, fmt.Errorf("dist: exchange %q at vertex %d lost messages (injected %v): %w",
			x.Label, x.Vertex, *drop, ErrExchangeTimeout)
	}
	for s := range recv {
		recv[s] = append(recv[s], own[s]...)
		netfabric.SortMessages(recv[s])
	}
	return recv, nil
}

// wireErr maps a transport failure onto ErrExchangeTimeout: from the
// scheduler's point of view a dead wire and a silent one are the same
// transient event, so the existing retry/fallback ladder
// handles both without knowing transports exist.
func (r *exec) wireErr(x engine.Xfer, stage string, err error) error {
	return fmt.Errorf("dist: exchange %q at vertex %d %s failed on transport %q: %v: %w",
		x.Label, x.Vertex, stage, r.cfg.Transport.Name(), err, ErrExchangeTimeout)
}

// Exchange implements engine.Mover's shuffle on the fabric. A dense or
// CSR tuple that arrives as other storage than was sent crossed a wire
// and was decoded into storage of its own: the run's Storage owns those
// copies on arrival, so a relation built of them holds them too, and the
// attempt releases them once its step is done (execStep).
func (r *exec) Exchange(x engine.Xfer, produce func(shard int) ([]engine.Routed, error)) ([][]engine.Tuple, error) {
	sent := make([][]routed, r.Shards())
	recv, err := r.exchange(x, func(s int) ([]routed, error) {
		ts, err := produce(s)
		if err != nil {
			return nil, err
		}
		out := make([]routed, len(ts))
		for i, t := range ts {
			out[i] = routed{dst: t.Dst, msg: message{Key: t.Tuple.Key, Tuple: t.Tuple}}
		}
		sent[s] = out
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	local := make(map[any]bool) // the payloads sent, by pointer
	for _, out := range sent {
		for _, rm := range out {
			if t := rm.msg.Tuple; t.Dense != nil {
				local[t.Dense] = true
			} else if t.CSR != nil {
				local[t.CSR] = true
			}
		}
	}
	var wire []engine.Tuple
	for _, ms := range recv {
		for _, m := range ms {
			if t := m.Tuple; (t.Dense != nil && !local[t.Dense]) || (t.CSR != nil && !local[t.CSR]) {
				wire = append(wire, t)
			}
		}
	}
	if len(wire) > 0 {
		w := &engine.Relation{Parts: [][]engine.Tuple{wire}}
		r.st.Own(w)
		r.wire = append(r.wire, w)
	}
	return messageTuples(recv), nil
}

// Reduce implements engine.Mover's group-by-SUM on the fabric: every
// partial is computed on the shard that produced it, shipped tagged
// (key, seq), and folded on its destination shard in sorted order. A
// received partial fold did not keep is held by nothing else — it was
// made for this exchange, or decoded off the wire — so it goes back to
// the free list.
func (r *exec) Reduce(x engine.Xfer, produce func(shard int) ([]engine.Partial, error),
	fold func(shard int, key engine.Key, part *tensor.Dense) bool) error {
	recv, err := r.exchange(x, func(s int) ([]routed, error) {
		ps, err := produce(s)
		if err != nil {
			return nil, err
		}
		out := make([]routed, len(ps))
		for i, p := range ps {
			out[i] = routed{dst: p.Dst, msg: message{Key: p.Key, Seq: p.Seq,
				Tuple: engine.Tuple{Key: p.Key, Dense: p.Make()}}}
		}
		return out, nil
	})
	if err != nil {
		return err
	}
	return r.Parallel(func(s int) error {
		for _, g := range recv[s] {
			if !fold(s, g.Key, g.Tuple.Dense) {
				tensor.Release(g.Tuple.Dense)
			}
		}
		return nil
	})
}

// messageTuples strips the routing envelope, preserving order.
func messageTuples(recv [][]message) [][]engine.Tuple {
	out := make([][]engine.Tuple, len(recv))
	for s, ms := range recv {
		if len(ms) == 0 {
			continue
		}
		ts := make([]engine.Tuple, len(ms))
		for i, g := range ms {
			ts[i] = g.Tuple
		}
		out[s] = ts
	}
	return out
}
