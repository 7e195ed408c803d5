//go:build matopt_poison

// This file is built only by `make poison`, which runs the kernel suites
// and the pinned output digests with it. It fills every array drawn
// without zeroing, and every array released, with a NaN (a float array)
// or a negative index no matrix has (an index array), so a kernel that
// leaves an element of its output unwritten, or a reader of released
// storage, turns a golden's bits into NaN or indexes out of range.

package tensor

import "math"

// poisonBits is a signalling NaN with a payload no computation produces.
const poisonBits = 0x7ff4dead00000001

func init() {
	nan := math.Float64frombits(poisonBits)
	floats.poison = func(d []float64) {
		for i := range d {
			d[i] = nan
		}
	}
	indices.poison = func(d []int) {
		for i := range d {
			d[i] = math.MinInt32
		}
	}
}
