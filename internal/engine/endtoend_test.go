package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/tensor"
)

// TestRandomGraphsEndToEnd is the repository's strongest integration
// property: generate random compute DAGs, optimize them, execute the
// chosen physical plans on real data, and compare every sink against
// the independent oracle (benchkit.Eval). Any bug in the optimizer's
// type-correctness, a transformation kernel, or an operator shows up as
// a numeric mismatch.
func TestRandomGraphsEndToEnd(t *testing.T) {
	env := core.NewEnv(costmodel.LocalTest(4), format.All())
	kinds := []op.Kind{op.MatMul, op.Add, op.Sub, op.Hadamard, op.Transpose,
		op.ReLU, op.ReLUGrad, op.Neg, op.ScalarMul, op.Softmax, op.RowSums, op.ColSums}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := core.NewGraph()
		const n = 120
		s := shape.New(n, n)
		srcFormats := []format.Format{
			format.NewSingle(), format.NewTile(100), format.NewRowStrip(100), format.NewColStrip(100),
		}
		inputs := make(map[string]*tensor.Dense)
		nIn := 2 + rng.Intn(2)
		for i := 0; i < nIn; i++ {
			name := string(rune('A' + i))
			g.Input(name, s, 1, srcFormats[rng.Intn(len(srcFormats))])
			inputs[name] = tensor.RandNormal(rng, n, n)
		}
		// Square ops only, so any operand combination type-checks; ops
		// producing vectors (sums) are terminal picks only.
		for i := 0; i < 4+rng.Intn(4); i++ {
			k := kinds[rng.Intn(len(kinds))]
			o := op.Op{Kind: k}
			if k == op.ScalarMul {
				o.Scalar = rng.Float64()*2 - 1
			}
			pickSquare := func() *core.Vertex {
				for {
					v := g.Vertices[rng.Intn(len(g.Vertices))]
					if v.Shape == s {
						return v
					}
				}
			}
			var err error
			if o.Arity() == 2 {
				_, err = g.Apply(o, pickSquare(), pickSquare())
			} else {
				_, err = g.Apply(o, pickSquare())
			}
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
		}
		ann, err := core.Optimize(g, env)
		if err != nil {
			t.Fatalf("seed %d: optimize: %v", seed, err)
		}
		if err := ann.Verify(env); err != nil {
			t.Fatalf("seed %d: verify: %v", seed, err)
		}
		e := New(env.Cluster)
		got, err := runCollect(e, env, ann, inputs)
		if err != nil {
			t.Fatalf("seed %d: execute: %v", seed, err)
		}
		checkOracle(t, fmt.Sprintf("seed %d", seed), g, inputs, got)
		if t.Failed() {
			t.Fatalf("seed %d plan:\n%s", seed, ann.Describe())
		}
	}
}
