package tensor

import "math"

// Apply returns f mapped over every entry, element-partitioned across
// the context's threads (entries are independent, so any partition is
// bit-identical to serial).
func (k K) Apply(a *Dense, f func(float64) float64) *Dense {
	defer k.end(k.begin())
	out := Draw(a.Rows, a.Cols)
	k.parRange(len(a.Data), grainFor(unaryWork), func(lo, hi int) {
		ad, od := a.Data[lo:hi], out.Data[lo:hi]
		for i, v := range ad {
			od[i] = f(v)
		}
	})
	return out
}

// unaryWork is the assumed per-element cost of a mapped function, in
// scalar-op equivalents: transcendental maps (Exp, Sigmoid) dominate
// the family, so chunks are sized for them — cheap maps just get
// slightly larger chunks than strictly necessary.
const unaryWork = 16

// ReLU returns max(x, 0) entrywise under the context's thread budget.
func (k K) ReLU(a *Dense) *Dense {
	return k.Apply(a, func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	})
}

// ReLUGrad returns the ReLU derivative under the context's thread budget.
func (k K) ReLUGrad(a *Dense) *Dense {
	return k.Apply(a, func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	})
}

// Sigmoid returns 1/(1+e^{−x}) entrywise under the context's thread
// budget.
func (k K) Sigmoid(a *Dense) *Dense {
	return k.Apply(a, func(x float64) float64 { return 1 / (1 + math.Exp(-x)) })
}

// Exp returns e^x entrywise under the context's thread budget.
func (k K) Exp(a *Dense) *Dense { return k.Apply(a, math.Exp) }

// Neg returns −a under the context's thread budget.
func (k K) Neg(a *Dense) *Dense {
	return k.Apply(a, func(x float64) float64 { return -x })
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
