// Package benchkit is the measurement kit under cmd/bench: the record
// schema every benchmark run is written in, the order statistics its
// metrics are reported as, an in-memory span recorder with self-time
// and coverage arithmetic, an oracle that evaluates a compute graph
// independently of every engine, two machine probes that give the
// kernels' roofline its denominators, and the reference kernel a shared
// host's speed is read with.
//
// The kit knows nothing about the benchmark's workloads and imports
// none of the layers it measures except the graph definition the
// oracle walks (internal/core, internal/op), so a change to a kernel,
// an engine or the serving layer cannot change what a number means.
package benchkit

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// Quantile returns the q-quantile (q in [0, 1]) of xs by linear
// interpolation between closest ranks; 0 for an empty sample.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// Median returns the 0.5-quantile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// Quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the "exclusive" method) — the
// rule the benchmark contract measures run-to-run spread with, so
// -compare and the contract agree on what a spread is. Fewer than two
// values return the single value (or 0) three times.
func Quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// IQRFrac returns the interquartile range of xs as a share of its
// median, by the Quartiles rule; 0 when the median is 0.
func IQRFrac(xs []float64) float64 {
	q1, q2, q3 := Quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// tailLadder lists the percentiles a latency tail may be reported at.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90}

// TailPercentile returns the highest percentile of the ladder 90, 95,
// 99, 99.9 that still has at least ten of the n samples beyond it — the
// highest one a sample of that size supports. ok is false when n is too
// small for any of them (n < 100), in which case only the median should
// be reported.
func TailPercentile(n int) (p float64, ok bool) {
	for _, p := range tailLadder {
		// The epsilon keeps 1000·(1−0.99) = 9.999… from missing by
		// floating-point rounding.
		if float64(n)*(1-p)+1e-9 >= 10 {
			return p, true
		}
	}
	return 0, false
}
