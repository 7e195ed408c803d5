package tensor

import "math/rand"

// RandNormal returns an r×c matrix with i.i.d. Normal(0, 1) entries drawn
// from rng, matching how the paper generates FFNN inputs and weights.
func RandNormal(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// RandSparse returns an r×c matrix where each entry is non-zero (uniform
// in (0, 1]) with probability density.
func RandSparse(rng *rand.Rand, r, c int, density float64) *Dense {
	m := NewDense(r, c)
	for i := range m.Data {
		if rng.Float64() < density {
			// The conversion rounds Float64's inlined scaling before
			// the add: only the kernel bodies fuse (KERNELS.md §2,
			// Rule 3), and these are input bits.
			m.Data[i] = float64(rng.Float64()) + 1e-9
		}
	}
	return m
}
