package dist_test

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"matopt/internal/dist"
	"matopt/internal/netfabric"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// TestRandomFaultsGolden locks the RandomFaults schedule for fixed
// seeds: the derived schedules are part of the reproducibility contract
// (chaos runs cite their seed), so the case distribution in
// RandomFaults must never change. If this test fails, restore the
// generator — do not update the golden values.
func TestRandomFaultsGolden(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	golden := map[int64][]dist.Fault{
		1: {
			{Kind: dist.FaultSlowShard, Shard: 3, Delay: 50 * time.Microsecond},
			{Kind: dist.FaultDropExchange, Vertex: 3, Shard: -1},
			{Kind: dist.FaultDropExchange, Vertex: 4, Shard: -1},
			{Kind: dist.FaultCrash, Vertex: 6},
			{Kind: dist.FaultDelayExchange, Vertex: 6, Shard: -1, Delay: 2 * time.Millisecond},
			{Kind: dist.FaultDropExchange, Vertex: 10, Shard: -1},
		},
		7: {
			{Kind: dist.FaultDelayExchange, Vertex: 2, Shard: -1, Delay: time.Millisecond},
			{Kind: dist.FaultCrash, Vertex: 1},
			{Kind: dist.FaultCrash, Vertex: 9},
			{Kind: dist.FaultCrash, Vertex: 10},
			{Kind: dist.FaultCrash, Vertex: 2},
			{Kind: dist.FaultDelayExchange, Vertex: 8, Shard: -1, Delay: 3 * time.Millisecond},
		},
	}
	for seed, want := range golden {
		p := dist.RandomFaults(seed, len(want), ids, 4)
		if got := p.Faults(); !reflect.DeepEqual(got, want) {
			t.Errorf("RandomFaults(seed %d) schedule drifted:\n got  %v\n want %v", seed, got, want)
		}
		if p.Seed() != seed {
			t.Errorf("RandomFaults(seed %d).Seed() = %d", seed, p.Seed())
		}
	}
	if dist.NewFaultPlan().Seed() != 0 {
		t.Error("explicit plans must report seed 0")
	}
	if (*dist.FaultPlan)(nil).Seed() != 0 {
		t.Error("nil plan must report seed 0")
	}
}

// heldLink is the in-process transport with one slow socket: the first
// dense message an exchange of the watched vertex and label sends is held
// in its Send for hold — a blocked write, which a timed-out exchange
// does not call back — and only then is its
// payload read, the way a socket that writes from storage reads it. done
// receives once, when the held payload has been read: whether its
// storage was released or rewritten while the write was blocked.
type heldLink struct {
	netfabric.Transport
	x     dist.ExchangeStat
	hold  time.Duration
	fired atomic.Bool
	done  chan bool
}

func newHeldLink(x dist.ExchangeStat, hold time.Duration) *heldLink {
	return &heldLink{Transport: netfabric.Chan(), x: x, hold: hold, done: make(chan bool, 1)}
}

func (l *heldLink) Open(ctx context.Context, reg *obs.Registry, id netfabric.ExchangeID, shards int) (netfabric.Session, error) {
	s, err := l.Transport.Open(ctx, reg, id, shards)
	if err == nil && id.Vertex == l.x.Vertex && id.Label == l.x.Label {
		s = heldSession{Session: s, link: l}
	}
	return s, err
}

type heldSession struct {
	netfabric.Session
	link *heldLink
}

func (s heldSession) Send(dst int, m netfabric.Message) error {
	if d := m.Tuple.Dense; d != nil && s.link.fired.CompareAndSwap(false, true) {
		sent := d.Clone()
		time.Sleep(s.link.hold)
		s.link.done <- len(d.Data) != len(sent.Data) || !tensor.BitEqual(d, sent)
	}
	return s.Session.Send(dst, m)
}

// soleConsumerExchange returns an exchange of a vertex that is the only
// consumer of every input it has, each one an intermediate: once that
// vertex completes, the scheduler drops those inputs — and may recycle
// them.
func soleConsumerExchange(t *testing.T, pp *plan.Plan, base *dist.Report) dist.ExchangeStat {
	t.Helper()
	retained := make(map[int]bool)
	for _, id := range pp.Retained {
		retained[id] = true
	}
	for _, x := range base.Exchanges {
		v := pp.Graph.Vertices[x.Vertex]
		sole := len(v.Ins) > 0
		for _, in := range v.Ins {
			sole = sole && !in.IsSource && len(in.Outs) == 1 && !retained[in.ID]
		}
		if sole {
			return x
		}
	}
	t.Fatal("no exchange of a vertex that solely consumes intermediates")
	return dist.ExchangeStat{}
}

// TestChaosTimedOutConsumerKeepsItsInputs: a vertex whose exchange times
// out while a producer is still sending one of its inputs is retried and
// completes — but that input must not be recycled when it does, since
// the stale producer reads it after the retry has won. The injected 1 ms
// delay moves the exchange's producers off the shard workers (as it does
// for any delayed exchange), so the held write blocks a producer, not the
// shard the retry needs.
func TestChaosTimedOutConsumerKeepsItsInputs(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)
	x := soleConsumerExchange(t, pp, runFaulted(t, "profile", cl, 2, nil, pp, inputs, want))
	leakChecked(t, func() {
		link := newHeldLink(x, 400*time.Millisecond)
		plan := dist.NewFaultPlan(dist.Fault{
			Kind: dist.FaultDelayExchange, Vertex: x.Vertex, Label: x.Label, Shard: -1, Delay: time.Millisecond,
		})
		rep := runFaulted(t, "timed-out", cl, 2, plan, pp, inputs, want,
			dist.Config{Transport: link, ExchangeTimeout: 100 * time.Millisecond})
		if rep.RetriesByVertex[x.Vertex] < 1 {
			t.Fatalf("v%d was not retried after its exchange timed out: %v", x.Vertex, rep.RetriesByVertex)
		}
		if <-link.done {
			t.Fatalf("v%d's input was recycled while a timed-out producer was still sending it", x.Vertex)
		}
	})
}
