package costmodel

import "math"

// The network-pattern helpers below convert logical data volumes into the
// "worst-case bytes through the busiest link" feature. They encode the
// communication patterns of the relational engine's physical operators.

// BroadcastBytes returns the per-link bytes to replicate a relation of
// b total bytes to every worker via a binomial broadcast tree: the root
// forwards the payload ceil(log2(w)) times.
func BroadcastBytes(b float64, workers int) float64 {
	if workers <= 1 {
		return 0
	}
	return b * math.Ceil(math.Log2(float64(workers)))
}

// ShuffleBytes returns the per-link bytes to hash-repartition a relation
// of b total bytes across w workers: each worker sends and receives about
// b/w bytes (the (w−1)/w cross-worker fraction is folded into the learned
// coefficients).
func ShuffleBytes(b float64, workers int) float64 {
	if workers <= 1 {
		return 0
	}
	return b / float64(workers)
}

// GatherBytes returns the per-link bytes to collect a relation of b total
// bytes onto one worker, whose inbound link is the bottleneck.
func GatherBytes(b float64, workers int) float64 {
	if workers <= 1 {
		return 0
	}
	return b * float64(workers-1) / float64(workers)
}

// AggregateBytes returns the per-link bytes of a tree reduction that
// combines per-worker partial results of b bytes each.
func AggregateBytes(bPerPartial float64, workers int) float64 {
	if workers <= 1 {
		return 0
	}
	return bPerPartial * math.Ceil(math.Log2(float64(workers)))
}

// ParallelFLOPs divides total floating-point work over the effective
// parallelism: the smaller of the worker count and the number of
// independent tasks.
func ParallelFLOPs(total float64, workers int, tasks int64) float64 {
	p := int64(workers)
	if tasks < p {
		p = tasks
	}
	if p < 1 {
		p = 1
	}
	return total / float64(p)
}
