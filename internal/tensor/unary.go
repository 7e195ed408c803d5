package tensor

import (
	"math"
)

// unaryWork is the assumed per-element cost of a transcendental map
// (Exp, Sigmoid, a softmax row's entries), in scalar-op equivalents.
const unaryWork = 16

// ReLU returns x where x > 0 and +0 elsewhere (−0 and NaN included),
// entrywise under the context's thread budget.
func (k K) ReLU(a *Dense) *Dense { return k.mapNew(a, 1, relu) }

// ReLUGrad returns the ReLU derivative — 1 where x > 0, +0 elsewhere
// (NaN included) — under the context's thread budget.
func (k K) ReLUGrad(a *Dense) *Dense { return k.mapNew(a, 1, reluGrad) }

func relu(od, ad []float64) {
	od = od[:len(ad)]
	for i, x := range ad {
		b := math.Float64bits(x)
		od[i] = math.Float64frombits(b & positive(b))
	}
}

func reluGrad(od, ad []float64) {
	od = od[:len(ad)]
	for i, x := range ad {
		od[i] = math.Float64frombits(math.Float64bits(1) & positive(math.Float64bits(x)))
	}
}

// positive is all ones when b is the bits of a float64 greater than
// zero and all zeros otherwise, without a branch a random sign would
// mispredict. Exactly the bits 1 (the least subnormal) through those of
// +Inf are such floats, so d = b−1 is below +Inf's bits for them only:
// +0 wraps d to the top, and a negative or a NaN leaves it at or above.
// d < +Inf's bits is d − +Inf's bits negative while d is not.
func positive(b uint64) uint64 {
	d := int64(b - 1)
	return uint64(((d - int64(math.Float64bits(math.Inf(1)))) &^ d) >> 63)
}

// mapNew draws the entrywise image of a that loop writes whole: loop is
// called once per chunk with equally long slices of the output and the
// operand, so an element costs one iteration of a plain loop, not a
// call, and chunks are sized for work scalar ops an element. Elements
// are independent, so any flat partition is bit-identical to serial.
func (k K) mapNew(a *Dense, work int, loop func(od, ad []float64)) *Dense {
	defer k.end(k.begin())
	out := Draw(a.Rows, a.Cols)
	k.parRange(len(a.Data), grainFor(work), func(lo, hi int) {
		loop(out.Data[lo:hi], a.Data[lo:hi])
	})
	return out
}

// Sigmoid returns 1/(1+e^{−x}) entrywise under the context's thread
// budget.
func (k K) Sigmoid(a *Dense) *Dense {
	return k.mapNew(a, unaryWork, func(od, ad []float64) {
		od = od[:len(ad)]
		for i, x := range ad {
			od[i] = 1 / (1 + math.Exp(-x))
		}
	})
}

// Exp returns e^x entrywise under the context's thread budget.
func (k K) Exp(a *Dense) *Dense {
	return k.mapNew(a, unaryWork, func(od, ad []float64) {
		od = od[:len(ad)]
		for i, x := range ad {
			od[i] = math.Exp(x)
		}
	})
}

// Neg returns −a under the context's thread budget.
func (k K) Neg(a *Dense) *Dense {
	return k.mapNew(a, 1, func(od, ad []float64) {
		od = od[:len(ad)]
		for i, x := range ad {
			od[i] = -x
		}
	})
}

// Softmax returns the row-wise softmax, row-partitioned: each row is
// computed exactly as in the serial kernel (max scan, exp, normalize,
// all left to right), so thread count cannot change bits.
func (k K) Softmax(a *Dense) *Dense {
	defer k.end(k.begin())
	out := Draw(a.Rows, a.Cols)
	k.parRange(a.Rows, grainFor(unaryWork*a.Cols), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row := a.Data[i*a.Cols : (i+1)*a.Cols]
			orow := out.Data[i*a.Cols : (i+1)*a.Cols]
			mx := math.Inf(-1)
			for _, v := range row {
				if v > mx {
					mx = v
				}
			}
			var sum float64
			for j, v := range row {
				e := math.Exp(v - mx)
				orow[j] = e
				sum += e
			}
			for j := range orow {
				orow[j] /= sum
			}
		}
	})
	return out
}
