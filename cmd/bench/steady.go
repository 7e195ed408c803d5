package main

import (
	"time"

	"matopt/internal/benchkit"
)

// The reference box lends two virtual processors of a shared host, and
// the host has phases, seconds to minutes long, in which everything on it
// runs 1.4 to 3 times slower (README.md, "How steady it is"). The
// end-to-end run therefore reads the host's speed all the way through
// with benchkit's reference kernel — plain loops, none of the program's
// code — and reports every time as it would have been in the quiet phase.

// refNominalS is what one reading of the reference kernel takes on the
// reference box in its quiet phase. A reading divided by it is the
// host's slowdown at that moment.
const refNominalS = 0.0255

// sliceSeconds is how much of a pass runs between two readings.
const sliceSeconds = 0.5

// host reads the machine's speed on as many processors as the workloads
// use.
type host struct{ ref *benchkit.Ref }

func newHost() host { return host{benchkit.NewRef(workloadProcs)} }

// slowdown takes one reading: 1 in the reference box's quiet phase, 1.4
// when everything on it runs 1.4 times slower.
func (h host) slowdown() float64 { return h.ref.Seconds() / refNominalS }

// steadyPass runs inst's tracing-off pass in slices of sliceSeconds with
// a reading of the host's slowdown before, between and after them, and
// returns the pass with every latency, and the wall time, divided by the
// slowdown around it. The slowdown around a slice is the median of the
// eight readings nearest to it: a reading is 25 ms of work and a hiccup
// of the host can double it, an op is a second of work and hardly notices.
func steadyPass(inst instance, lim limits, h host) passResult {
	var parts []passResult
	reads := []float64{h.slowdown()}
	start := time.Now()
	for n := 0; !lim.done(n, start); n += len(parts[len(parts)-1].lat) {
		parts = append(parts, inst.pass(limits{seconds: sliceSeconds, minOps: 1, maxOps: lim.maxOps}, nil))
		reads = append(reads, h.slowdown())
	}
	var res passResult
	for i, part := range parts {
		s := benchkit.Median(reads[max(i-3, 0):min(i+5, len(reads))])
		for _, l := range part.lat {
			res.lat = append(res.lat, l/s)
		}
		res.wall += part.wall / s
		res.failed += part.failed
	}
	return res
}
