package dist

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"

	"matopt/internal/netfabric"
	"matopt/internal/obs"
	"matopt/internal/plan"
	"matopt/internal/pool"
)

// Config is the one description of an execution's run-time environment:
// every knob a caller may set is declared, defaulted and range-checked
// here and nowhere else. The Go API (matopt.ExecConfig is this type),
// the /execute body and the matopt CLI bind directly to these fields:
// the JSON names are the wire format and, with '_' spelled '-', the CLI
// flags (table: DESIGN.md §17). Every zero value is the default, so
// Config{} is a GOMAXPROCS-shard in-process run. `json:"-"` fields are
// for Go callers: handles that cannot cross a wire, timings tests cut.
type Config struct {
	// Shards is the dist engine's shard count: every relation is hash
	// partitioned across this many shard goroutines. 0 = DefaultShards()
	// (GOMAXPROCS); negative or above ShardLimit is an error. Ignored by
	// the sequential engine.
	Shards int `json:"shards,omitempty"`
	// KernelThreads bounds the threads each local compute kernel may
	// use, on either engine. Kernels run on the shared GOMAXPROCS-bounded
	// pool (internal/pool), so the process never oversubscribes the
	// machine, and a shard that cannot get a pool worker computes its
	// chunk inline. 1 = serial kernels; 0 = automatic — the whole machine
	// for the sequential engine, pool.Budget(shards) = max(1,
	// GOMAXPROCS/shards) per dist shard, so shard and kernel parallelism
	// compose. Negative is an error. Results are bit-identical at every
	// setting (KERNELS.md).
	KernelThreads int `json:"kernel_threads,omitempty"`
	// MaxRetries is how often the dist engine recomputes a vertex that
	// failed transiently (ErrShardFailed, ErrExchangeTimeout) before
	// giving up with ErrRetriesExhausted. nil (absent on the wire) =
	// DefaultMaxRetries; an explicit 0 = fail on the first fault.
	// Negative or above RetryLimit is an error.
	MaxRetries *int `json:"max_retries,omitempty"`
	// Fallback degrades gracefully: when a dist run fails for any reason
	// but cancellation, the caller that owns a sequential engine
	// (matopt.Executor, the CLI) re-executes the plan there —
	// bit-identically — and marks the Report Degraded. The dist runtime
	// itself only carries the flag.
	Fallback bool `json:"fallback,omitempty"`
	// Faults injects that many seeded failures — crashed tasks and
	// dropped exchanges — drawn by RandomFaults from (FaultSeed, the
	// plan's vertex ids) afresh for every run. Each targets a first
	// attempt, so any retry budget above zero recovers. 0 = none; negative or above FaultLimit is an error;
	// positive requires the dist engine. FaultPlan takes precedence.
	Faults int `json:"faults,omitempty"`
	// FaultSeed picks the Faults schedule: a chaos run is reproducible
	// from this one number. 0 = 1; negative is an error.
	FaultSeed int64 `json:"fault_seed,omitempty"`
	// Peers maps shards onto worker processes: shard s lives on
	// Peers[s % len(Peers)], each entry a `matoptd -worker -listen`
	// address or netfabric.LocalPeer ("local": in-process, no socket).
	// When non-empty every run builds its own TCP transport — framed
	// messages over pooled per-peer connections, wire bytes metered onto
	// the Report — and closes it with the run, so a failed run leaks no
	// sockets. Wire failures surface as ErrExchangeTimeout and ride the
	// retry → fallback ladder; outputs are bit-identical across
	// transports (the fabric's (key, seq) sort erases arrival order).
	// Empty = the in-process chan transport; an empty entry or more
	// than PeerLimit entries is an error; dist only.
	Peers []string `json:"peers,omitempty"`

	// Tracer, when non-nil, records every run as a "dist.run" span under
	// Span with "vertex"/"attempt" children and an "exchange" span per
	// fabric exchange (DESIGN.md §11). nil costs nothing; the metrics
	// behind each Report are unaffected.
	Tracer *obs.Tracer `json:"-"`
	Span   *obs.Span   `json:"-"`
	// FaultPlan is an explicit schedule, replacing Faults/FaultSeed — the
	// only way to inject a fault on a later attempt. Its one-shot faults
	// fire once across every run sharing the plan.
	FaultPlan *FaultPlan `json:"-"`
	// Transport replaces the transport Peers would select with a
	// caller-built one (say, a TCP with a short netfabric.WithIOTimeout);
	// the caller owns its lifecycle, the runtime never closes it.
	Transport netfabric.Transport `json:"-"`
}

// Upper bounds on the knobs that size per-run state — shard goroutines
// and queues, fault records, peer pools — straight from outside input:
// far above anything one process can use, they exist so an absurd
// request is refused before it allocates.
const (
	ShardLimit = 4096
	FaultLimit = 4096
	PeerLimit  = 4096
	RetryLimit = 1024
)

// DefaultMaxRetries is the retry budget of a Config that sets none.
const DefaultMaxRetries = 2

// DefaultShards is the shard count used when the caller does not choose
// one: the process's GOMAXPROCS.
func DefaultShards() int { return runtime.GOMAXPROCS(0) }

// Validate holds every range check and every "requires engine dist"
// rule. distEngine says whether the configuration is about to drive
// the dist runtime; the sequential engine and the simulator pass false
// and so reject the dist-only knobs rather than ignore them. Errors
// name a knob by its JSON name. New runs it, so no surface reaches the
// runtime around it.
func (c Config) Validate(distEngine bool) error {
	retries := *cmp.Or(c.MaxRetries, new(int)) // nil = the default, which is in range
	for _, k := range []struct {
		name   string
		v, max int64
	}{
		{"shards", int64(c.Shards), ShardLimit},
		{"kernel_threads", int64(c.KernelThreads), math.MaxInt64},
		{"faults", int64(c.Faults), FaultLimit},
		{"fault_seed", c.FaultSeed, math.MaxInt64},
		{"max_retries", int64(retries), RetryLimit},
		{"len(peers)", int64(len(c.Peers)), PeerLimit},
	} {
		if k.v < 0 {
			return fmt.Errorf("%s must be non-negative, got %d", k.name, k.v)
		}
		if k.v > k.max {
			return fmt.Errorf("%s must be at most %d, got %d", k.name, k.max, k.v)
		}
	}
	for i, p := range c.Peers {
		if strings.TrimSpace(p) == "" {
			return fmt.Errorf("peers[%d] is empty", i)
		}
	}
	switch {
	case distEngine:
	case c.Faults > 0:
		return errors.New("faults requires engine dist")
	case len(c.Peers) > 0:
		return errors.New("peers requires engine dist")
	}
	return nil
}

// withDefaults returns c with every zero value replaced by the default
// its field comment documents — the one place defaults are filled.
func (c Config) withDefaults() Config {
	c.Shards = cmp.Or(c.Shards, DefaultShards())
	c.KernelThreads = cmp.Or(c.KernelThreads, pool.Budget(c.Shards))
	retries := DefaultMaxRetries
	c.MaxRetries = cmp.Or(c.MaxRetries, &retries)
	c.FaultSeed = cmp.Or(c.FaultSeed, 1)
	return c
}

// faultPlan returns the schedule a run of p injects: the explicit
// FaultPlan when one is set, else the seeded schedule of Faults
// failures over p's vertex ids, else nil.
func (c Config) faultPlan(p *plan.Plan) *FaultPlan {
	if c.FaultPlan != nil || c.Faults == 0 {
		return c.FaultPlan
	}
	ids := make([]int, len(p.Graph.Vertices))
	for i, v := range p.Graph.Vertices {
		ids[i] = v.ID
	}
	return RandomFaults(c.FaultSeed, c.Faults, ids)
}
