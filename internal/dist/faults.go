package dist

import (
	"fmt"
	"math/rand"
	"sync/atomic"
)

// Fault injection: the paper's optimizer targets real clusters where
// workers crash and lose messages. The dist runtime injects those
// failures deterministically — a FaultPlan is a fixed schedule, not a
// random process at execution time — so every chaos test is
// reproducible bit for bit: the same plan against the same computation
// always fails at the same points and recovers along the same path.
//
// Injection points mirror where a real deployment fails:
//
//   - FaultCrash fires at the top of a vertex execution attempt — the
//     stand-in for a worker process dying mid-task. It surfaces as
//     ErrShardFailed and is retryable.
//   - FaultDropExchange discards one shard's (or every shard's)
//     outgoing messages of one exchange at the producer. The receiving
//     side cannot tell lost data from a dead link, so a drop surfaces as
//     ErrExchangeTimeout and is retryable.
//
// No kind loses data: no process but the coordinator holds a relation,
// so a worker that dies is a failed exchange, retried like any other
// (DESIGN.md §14).

// FaultKind selects what a Fault breaks.
type FaultKind int

const (
	// FaultCrash fails a vertex execution attempt with ErrShardFailed.
	FaultCrash FaultKind = iota
	// FaultDropExchange loses an exchange's messages; surfaces as
	// ErrExchangeTimeout on the consuming vertex.
	FaultDropExchange
)

// String names the kind as fault schedules print it: crash or drop.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultDropExchange:
		return "drop"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// Fault is one scheduled failure. It fires at most once, on the attempt
// it names.
type Fault struct {
	Kind    FaultKind
	Vertex  int    // target vertex ID; -1 matches any vertex
	Label   string // exchange label filter (drop); "" matches any exchange of the vertex
	Shard   int    // producing shard whose messages are lost (drop); -1 matches all shards
	Attempt int    // the vertex execution attempt the fault fires on (0 = first)
}

// String renders the fault as one schedule line — kind(target,
// attempt) — the form the CLI prints before a chaos run.
func (f Fault) String() string {
	if f.Kind == FaultDropExchange {
		return fmt.Sprintf("drop(v%d %q attempt %d)", f.Vertex, f.Label, f.Attempt)
	}
	return fmt.Sprintf("crash(v%d attempt %d)", f.Vertex, f.Attempt)
}

// faultState is one scheduled fault plus its once-only firing latch.
type faultState struct {
	Fault
	fired atomic.Bool
}

// FaultPlan is a deterministic schedule of failures for one or more
// runs. A plan is safe for concurrent use; each one-shot fault fires
// exactly once across all runs sharing the plan, so tests normally
// build a fresh plan per run.
type FaultPlan struct {
	faults []*faultState
}

// NewFaultPlan builds an explicit fault schedule.
func NewFaultPlan(faults ...Fault) *FaultPlan {
	p := &FaultPlan{}
	for _, f := range faults {
		p.faults = append(p.faults, &faultState{Fault: f})
	}
	return p
}

// RandomFaults derives a schedule of n faults from a seed: crashes and
// drops over the given vertex IDs. Every fault targets attempt 0, so a
// runtime with at least one retry always recovers. The same (seed, n,
// vertices) always yields the same schedule — TestRandomFaultsGolden
// locks the output across releases, so the case distribution below must
// never change.
func RandomFaults(seed int64, n int, vertices []int) *FaultPlan {
	rng := rand.New(rand.NewSource(seed))
	var fs []Fault
	for i := 0; i < n; i++ {
		var v int
		if len(vertices) > 0 {
			v = vertices[rng.Intn(len(vertices))]
		}
		if rng.Intn(2) == 0 {
			fs = append(fs, Fault{Kind: FaultCrash, Vertex: v})
		} else {
			fs = append(fs, Fault{Kind: FaultDropExchange, Vertex: v, Shard: -1})
		}
	}
	return NewFaultPlan(fs...)
}

// Faults returns the scheduled faults, fired or not.
func (p *FaultPlan) Faults() []Fault {
	if p == nil {
		return nil
	}
	out := make([]Fault, len(p.faults))
	for i, f := range p.faults {
		out[i] = f.Fault
	}
	return out
}

// claim returns the matching crash fault for this vertex attempt,
// claiming it so it fires exactly once. All methods are nil-safe: a
// runtime with no plan pays one pointer comparison per injection point.
func (p *FaultPlan) claim(vertex, attempt int) *Fault {
	if p == nil {
		return nil
	}
	for _, f := range p.faults {
		if f.Kind != FaultCrash || f.Attempt != attempt {
			continue
		}
		if f.Vertex != -1 && f.Vertex != vertex {
			continue
		}
		if f.fired.CompareAndSwap(false, true) {
			return &f.Fault
		}
	}
	return nil
}

// drop returns the drop fault (if any) scheduled for this exchange of
// this vertex attempt, claiming it.
func (p *FaultPlan) drop(vertex int, label string, attempt int) *Fault {
	if p == nil {
		return nil
	}
	for _, f := range p.faults {
		if f.Kind != FaultDropExchange || f.Attempt != attempt {
			continue
		}
		if f.Vertex != -1 && f.Vertex != vertex {
			continue
		}
		if f.Label != "" && f.Label != label {
			continue
		}
		if f.fired.CompareAndSwap(false, true) {
			return &f.Fault
		}
	}
	return nil
}
