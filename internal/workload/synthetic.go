package workload

import (
	"math/rand"

	"matopt/internal/shape"
	"matopt/internal/tensor"
)

// AmazonCatDensity is the published density of the AmazonCat-14K
// extreme-classification dataset used by Figures 11/12: ≈100 non-zero
// features per example. The dataset itself is not redistributable here,
// so SyntheticAmazonCat draws inputs with its dimensions (AmazonCatConfig)
// and this density; only those quantities enter the kernels and the cost
// model.
const AmazonCatDensity = 1.7e-4

// SyntheticAmazonCat generates a batch×features sparse design matrix and
// a batch×labels one-hot label matrix with AmazonCat-like density. The
// caller chooses (possibly scaled-down) dimensions; density is preserved.
func SyntheticAmazonCat(rng *rand.Rand, batch, features, labels int) (x, y *tensor.Dense) {
	x = tensor.NewDense(batch, features)
	nnzPerRow := int(AmazonCatDensity * float64(features))
	if nnzPerRow < 1 {
		nnzPerRow = 1
	}
	for i := 0; i < batch; i++ {
		for k := 0; k < nnzPerRow; k++ {
			x.Set(i, rng.Intn(features), rng.Float64()+0.01)
		}
	}
	y = tensor.NewDense(batch, labels)
	for i := 0; i < batch; i++ {
		y.Set(i, rng.Intn(labels), 1)
	}
	return x, y
}

// FFNNInputs draws the dense FFNN inputs the way the paper does —
// Normal(0, 1) entries — for a (typically scaled-down) configuration.
func FFNNInputs(rng *rand.Rand, c FFNNConfig) map[string]*tensor.Dense {
	ins := map[string]*tensor.Dense{
		"X":  tensor.RandNormal(rng, int(c.Batch), int(c.Features)),
		"Y":  tensor.RandNormal(rng, int(c.Batch), int(c.Labels)),
		"W1": tensor.RandNormal(rng, int(c.Features), int(c.Hidden)),
		"B1": tensor.RandNormal(rng, 1, int(c.Hidden)),
		"W2": tensor.RandNormal(rng, int(c.Hidden), int(c.Hidden)),
		"B2": tensor.RandNormal(rng, 1, int(c.Hidden)),
		"W3": tensor.RandNormal(rng, int(c.Hidden), int(c.Labels)),
		"B3": tensor.RandNormal(rng, 1, int(c.Labels)),
	}
	if c.InputDensity < 1 {
		x, _ := SyntheticAmazonCat(rng, int(c.Batch), int(c.Features), int(c.Labels))
		ins["X"] = x
	}
	return ins
}

// ChainInputs draws the six matmul-chain inputs with Normal(0, 1)
// entries, A through F in that order from the one generator.
func ChainInputs(rng *rand.Rand, sz ChainSizes) map[string]*tensor.Dense {
	inputs := map[string]*tensor.Dense{}
	for _, in := range []struct {
		name string
		s    shape.Shape
	}{{"A", sz.A}, {"B", sz.B}, {"C", sz.C}, {"D", sz.D}, {"E", sz.E}, {"F", sz.F}} {
		inputs[in.name] = tensor.RandNormal(rng, int(in.s.Rows), int(in.s.Cols))
	}
	return inputs
}

// BlockInverseInputs draws one 2n×2n Normal(0, 1) matrix (n = Outer),
// adds 2n to its diagonal — diagonal dominance keeps every Schur
// complement the plan inverts well conditioned — and cuts it into the
// nine blocks BlockInverse2 names. full is the uncut matrix, for checks
// against a direct inverse.
func BlockInverseInputs(rng *rand.Rand, c BlockInverseConfig) (inputs map[string]*tensor.Dense, full *tensor.Dense) {
	n, n1 := int(c.Outer), int(c.Inner1)
	full = tensor.RandNormal(rng, 2*n, 2*n)
	for i := 0; i < 2*n; i++ {
		full.Set(i, i, full.At(i, i)+float64(2*n))
	}
	return map[string]*tensor.Dense{
		"A11": full.Slice(0, n1, 0, n1), "A12": full.Slice(0, n1, n1, n),
		"A21": full.Slice(n1, n, 0, n1), "A22": full.Slice(n1, n, n1, n),
		"B1": full.Slice(0, n1, n, 2*n), "B2": full.Slice(n1, n, n, 2*n),
		"C1": full.Slice(n, 2*n, 0, n1), "C2": full.Slice(n, 2*n, n1, n),
		"D": full.Slice(n, 2*n, n, 2*n),
	}, full
}
