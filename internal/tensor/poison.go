//go:build matopt_poison

// This file is built only by `make poison`, which runs the kernel suites
// and the pinned output digests with it. It fills every array drawn
// without zeroing, and every array released, with a NaN, so a kernel
// that leaves an element of its output unwritten, or a reader of
// released storage, turns a golden's bits into NaN and fails it.

package tensor

import "math"

// poisonBits is a signalling NaN with a payload no computation produces.
const poisonBits = 0x7ff4dead00000001

func init() {
	nan := math.Float64frombits(poisonBits)
	poison = func(d []float64) {
		for i := range d {
			d[i] = nan
		}
	}
}
