// Package workload builds the compute graphs of the paper's evaluation
// (§8): the §2.1 motivating chain, the FFNN forward/backward graphs of
// Figures 5–8, the AmazonCat FFNN of Figures 11–12, the two-level
// block-wise inverse of Figure 9, the matrix-multiplication chain of
// Figures 4/10, and the Tree/DAG1/DAG2 scale-n graphs of Figure 13.
package workload

import (
	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// FFNNConfig describes the paper's three-hidden-layer feed-forward
// network: a Batch×Features input, weight matrices Features×Hidden,
// Hidden×Hidden and Hidden×Labels, biases, relu activations and a
// softmax output (§8.2).
type FFNNConfig struct {
	Batch    int64
	Features int64
	Hidden   int64
	Labels   int64
	// InputFormat stores X; InputDensity is its non-zero fraction.
	InputFormat  format.Format
	InputDensity float64
	// WeightFormat stores the large W1 and W2; matrices small enough
	// for one tuple (W3, biases, labels) are stored whole.
	WeightFormat format.Format
	LearningRate float64
}

// PaperFFNN returns the §8.2 configuration: 10⁴ dense input vectors with
// 6·10⁴ features, 17 labels, and the given hidden layer size.
func PaperFFNN(hidden int64) FFNNConfig {
	return FFNNConfig{
		Batch:        10000,
		Features:     60000,
		Hidden:       hidden,
		Labels:       17,
		InputFormat:  format.NewRowStrip(1000),
		InputDensity: 1,
		WeightFormat: format.NewTile(1000),
		LearningRate: 0.01,
	}
}

// AmazonCatConfig returns the Figures 11/12 configuration: the
// AmazonCat-14K dimensions (597,540 features, 14,588 labels) with a
// synthetic density matching the dataset's ≈100 non-zeros per example.
// sparseInput selects CSR storage for X (Figure 12's "sparse input").
func AmazonCatConfig(batch, hidden int64, sparseInput bool) FFNNConfig {
	c := FFNNConfig{
		Batch:        batch,
		Features:     597540,
		Hidden:       hidden,
		Labels:       14588,
		InputDensity: 1.7e-4,
		InputFormat:  format.NewColStrip(1000),
		WeightFormat: format.NewTile(1000),
		LearningRate: 0.01,
	}
	if sparseInput {
		c.InputFormat = format.NewCSRSingle()
	}
	return c
}

// ffnnSources bundles the network's input vertices.
type ffnnSources struct {
	x, y, w1, b1, w2, b2, w3, b3 *core.Vertex
}

func (c FFNNConfig) addSources(g *core.Graph) ffnnSources {
	single := format.NewSingle()
	smallOr := func(s shape.Shape) format.Format {
		if single.Valid(s, 1, 1<<30) {
			return single
		}
		return c.WeightFormat
	}
	w3s := shape.New(c.Hidden, c.Labels)
	return ffnnSources{
		x:  g.Input("X", shape.New(c.Batch, c.Features), c.InputDensity, c.InputFormat),
		y:  g.Input("Y", shape.New(c.Batch, c.Labels), 1, single),
		w1: g.Input("W1", shape.New(c.Features, c.Hidden), 1, c.WeightFormat),
		b1: g.Input("B1", shape.New(1, c.Hidden), 1, single),
		w2: g.Input("W2", shape.New(c.Hidden, c.Hidden), 1, c.WeightFormat),
		b2: g.Input("B2", shape.New(1, c.Hidden), 1, single),
		w3: g.Input("W3", w3s, 1, smallOr(w3s)),
		b3: g.Input("B3", shape.New(1, c.Labels), 1, single),
	}
}

// ffnnForward holds the activations a backward pass needs.
type ffnnForward struct {
	z1b, a1, z2b, a2, p *core.Vertex
}

// forward adds one forward pass: Zi = Ai₋₁·Wi + Bi, Ai = relu(Zi), and a
// softmax output.
func (c FFNNConfig) forward(g *core.Graph, s ffnnSources) ffnnForward {
	mm := op.Op{Kind: op.MatMul}
	z1 := g.MustApply(mm, s.x, s.w1)
	z1b := g.MustApply(op.Op{Kind: op.AddBias}, z1, s.b1)
	a1 := g.MustApply(op.Op{Kind: op.ReLU}, z1b)
	z2 := g.MustApply(mm, a1, s.w2)
	z2b := g.MustApply(op.Op{Kind: op.AddBias}, z2, s.b2)
	a2 := g.MustApply(op.Op{Kind: op.ReLU}, z2b)
	z3 := g.MustApply(mm, a2, s.w3)
	z3b := g.MustApply(op.Op{Kind: op.AddBias}, z3, s.b3)
	p := g.MustApply(op.Op{Kind: op.Softmax}, z3b)
	return ffnnForward{z1b: z1b, a1: a1, z2b: z2b, a2: a2, p: p}
}

// ffnnUpdated holds the post-gradient-step parameters.
type ffnnUpdated struct {
	w1, b1, w2, b2, w3, b3 *core.Vertex
}

// backward adds the full backpropagation with SGD updates of every
// weight and bias, returning the updated parameters.
func (c FFNNConfig) backward(g *core.Graph, s ffnnSources, f ffnnForward) ffnnUpdated {
	mm := op.Op{Kind: op.MatMul}
	scale := op.Op{Kind: op.ScalarMul, Scalar: c.LearningRate / float64(c.Batch)}

	d3raw := g.MustApply(op.Op{Kind: op.Sub}, f.p, s.y)
	d3 := g.MustApply(op.Op{Kind: op.ScalarMul, Scalar: 1}, d3raw) // loss normalization slot
	a2t := g.MustApply(op.Op{Kind: op.Transpose}, f.a2)
	gw3 := g.MustApply(mm, a2t, d3)
	gb3 := g.MustApply(op.Op{Kind: op.ColSums}, d3)

	w3t := g.MustApply(op.Op{Kind: op.Transpose}, s.w3)
	d3w3t := g.MustApply(mm, d3, w3t)
	r2 := g.MustApply(op.Op{Kind: op.ReLUGrad}, f.z2b)
	d2 := g.MustApply(op.Op{Kind: op.Hadamard}, d3w3t, r2)
	a1t := g.MustApply(op.Op{Kind: op.Transpose}, f.a1)
	gw2 := g.MustApply(mm, a1t, d2)
	gb2 := g.MustApply(op.Op{Kind: op.ColSums}, d2)

	w2t := g.MustApply(op.Op{Kind: op.Transpose}, s.w2)
	d2w2t := g.MustApply(mm, d2, w2t)
	r1 := g.MustApply(op.Op{Kind: op.ReLUGrad}, f.z1b)
	d1 := g.MustApply(op.Op{Kind: op.Hadamard}, d2w2t, r1)
	xt := g.MustApply(op.Op{Kind: op.Transpose}, s.x)
	gw1 := g.MustApply(mm, xt, d1)
	gb1 := g.MustApply(op.Op{Kind: op.ColSums}, d1)

	update := func(w, grad *core.Vertex) *core.Vertex {
		step := g.MustApply(scale, grad)
		return g.MustApply(op.Op{Kind: op.Sub}, w, step)
	}
	return ffnnUpdated{
		w1: update(s.w1, gw1), b1: update(s.b1, gb1),
		w2: update(s.w2, gw2), b2: update(s.b2, gb2),
		w3: update(s.w3, gw3), b3: update(s.b3, gb3),
	}
}

// FFNNW2Update builds the Figure 6/7 graph: one forward pass plus the
// backpropagation needed to update the second hidden layer's weights.
func FFNNW2Update(c FFNNConfig) (*core.Graph, error) {
	g := core.NewGraph()
	s := c.addSources(g)
	f := c.forward(g, s)
	mm := op.Op{Kind: op.MatMul}

	d3 := g.MustApply(op.Op{Kind: op.Sub}, f.p, s.y)
	w3t := g.MustApply(op.Op{Kind: op.Transpose}, s.w3)
	d3w3t := g.MustApply(mm, d3, w3t)
	r2 := g.MustApply(op.Op{Kind: op.ReLUGrad}, f.z2b)
	d2 := g.MustApply(op.Op{Kind: op.Hadamard}, d3w3t, r2)
	a1t := g.MustApply(op.Op{Kind: op.Transpose}, f.a1)
	gw2 := g.MustApply(mm, a1t, d2)
	step := g.MustApply(op.Op{Kind: op.ScalarMul, Scalar: c.LearningRate}, gw2)
	if _, err := g.Apply(op.Op{Kind: op.Sub}, s.w2, step); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// FFNNBackprop builds a forward pass plus a full backpropagation with
// weight updates (the Figures 11/12 task).
func FFNNBackprop(c FFNNConfig) (*core.Graph, error) {
	g := core.NewGraph()
	s := c.addSources(g)
	f := c.forward(g, s)
	c.backward(g, s, f)
	return g, g.Validate()
}

// FFNNThreePass builds the Figure 5 graph: a forward pass, a full
// backpropagation updating every weight and bias, and a second forward
// pass computing the output activations — 57 vertices with the paper's
// configuration.
func FFNNThreePass(c FFNNConfig) (*core.Graph, error) {
	g := core.NewGraph()
	s := c.addSources(g)
	f := c.forward(g, s)
	u := c.backward(g, s, f)
	c.forward(g, ffnnSources{x: s.x, y: s.y, w1: u.w1, b1: u.b1, w2: u.w2, b2: u.b2, w3: u.w3, b3: u.b3})
	return g, g.Validate()
}

// ScaledFFNN shrinks a configuration by factor for Execute-mode tests,
// with formats made valid for the small shapes.
func ScaledFFNN(c FFNNConfig, factor int64) FFNNConfig {
	div := func(x int64) int64 {
		if v := x / factor; v > 0 {
			return v
		}
		return 1
	}
	c.Batch, c.Features, c.Hidden = div(c.Batch), div(c.Features), div(c.Hidden)
	if c.Labels > 4 {
		c.Labels = div(c.Labels)
		if c.Labels < 2 {
			c.Labels = 2
		}
	}
	c.InputFormat = format.NewRowStrip(min(100, c.Batch))
	c.WeightFormat = format.NewSingle()
	return c
}
