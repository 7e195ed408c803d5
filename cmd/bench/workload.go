package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"matopt/internal/benchkit"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/tensor"
)

// Every workload optimizes for, and runs on, this profile: two workers,
// two dist shards — sized for the two-core reference box.
const shards = 2

var cluster = costmodel.LocalTest(shards)

// limits bounds one pass and sizes one workload instance.
type limits struct {
	// seconds ends a pass once this much time has gone by and at least
	// minOps operations are done; maxOps, when positive, ends it after
	// exactly that many operations instead.
	seconds float64
	minOps  int
	maxOps  int
	// shrink divides every dimension once more (1 for the benchmark, 4
	// for -smoke); warmups is how many operations set-up runs before
	// anything is timed.
	shrink  int64
	warmups int
}

// passMinOps is the fewest operations a pass measures however short its
// time window: a median needs a few samples.
const passMinOps = 3

// done reports whether a pass that started at start and has finished n
// operations should stop.
func (l limits) done(n int, start time.Time) bool {
	if l.maxOps > 0 {
		return n >= l.maxOps
	}
	return n >= l.minOps && time.Since(start).Seconds() >= l.seconds
}

// passResult is what one closed-loop pass measured.
type passResult struct {
	lat    []float64 // latency of every operation, seconds
	wall   float64   // first operation's start to last one's end, seconds
	failed int       // operations that errored or failed verification
	// served_mix only: the request class of every operation, the part
	// of its latency the reply attributes to the engines (elapsed_ms;
	// 0 for /optimize and /plan), the response bytes read, and from the
	// server's own registry the requests it refused and the mean time a
	// request waited for a worker.
	class     []int
	inner     []float64
	bytes     int64
	rejected  int64
	queueWait float64
}

// failLog keeps an instance's first failure for the report and says
// every one on standard error. It is safe for concurrent use.
type failLog struct {
	mu       sync.Mutex
	firstErr error
}

func (f *failLog) fail(err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.firstErr == nil {
		f.firstErr = err
	}
	fmt.Fprintln(os.Stderr, "bench: operation failed:", err)
}

// instance is one set-up workload, ready to be measured.
type instance interface {
	// pass runs the workload's closed loop until lim ends it, recording
	// spans into rec; a nil rec is the tracing-off pass.
	pass(lim limits, rec *benchkit.Recorder) passResult
	// verify checks the outputs the passes kept against the oracle.
	verify() error
	// probeTarget names the computation the layer probes time: the
	// workload's own graph and inputs.
	probeTarget() (*core.Graph, map[string]*tensor.Dense)
	// close stops everything set-up started and waits for it.
	close()
}

// workload is one row of the benchmark: a name, why it is there, and
// how to set it up from a seed.
type workload struct {
	name, why string
	setup     func(seed int64, lim limits) (instance, error)
	// warmups is how many operations set-up runs, untimed, before the
	// first timed one; smokeOps how many -smoke measures per pass (two
	// library operations, but enough requests to draw every class).
	warmups, smokeOps int
}

// workloads lists the benchmark's rows in report order; the whys are
// the ones BENCHMARK.json carries.
var workloads = []workload{
	{
		name:  "chain_seq",
		why:   "warm matmul chain (S1/40) on the sequential engine: GEMM is nearly all of the op, no search, no exchange",
		setup: chainSeq.setup, warmups: 1, smokeOps: 2,
	},
	{
		name:  "chain_dist_tcp",
		why:   "warm matmul chain (S2/100) on 2 dist shards over loopback TCP: the most exchange-heavy paper plan that runs",
		setup: chainDistTCP.setup, warmups: 1, smokeOps: 2,
	},
	{
		name:  "inverse_cold",
		why:   "two-level block inverse (/80) with a new optimizer per op: Frontier search is the op, kernels almost none of it",
		setup: inverseCold.setup, warmups: 1, smokeOps: 2,
	},
	{
		name:  "served_mix",
		why:   "7-class HTTP mix on a loopback matoptd with 2 closed-loop clients: serve, plan cache and codec have their largest share",
		setup: setupServed, warmups: warmupDecks * 100, smokeOps: 100,
	},
}

// findWorkload returns the workload called name, or nil.
func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
