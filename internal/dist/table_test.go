package dist_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/enginetest"
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/tensor"
)

// TestEveryImplementationBitIdentical forces each registered
// implementation in turn — the golden workloads only reach the ones the
// optimizer happens to pick — over every combination of input formats
// its type function accepts, and requires the sequential engine and the
// dist runtime at 2 and 7 shards to return the same bytes, and those
// bytes to agree with the oracle. Sparse-format arguments are drawn at
// density 0.05, and once more at density 1 for each implementation that
// takes a CSR argument.
func TestEveryImplementationBitIdentical(t *testing.T) {
	const blk = 50 // ragged against every extent below
	candidates := []format.Format{
		format.NewSingle(), format.NewTile(blk), format.NewRowStrip(blk), format.NewColStrip(blk),
		format.NewCOO(), format.NewCSRSingle(), format.NewCSRRowStrip(blk),
	}
	// Argument shapes per computation; the graph infers the output's.
	argShapes := func(k op.Kind) []shape.Shape {
		switch k {
		case op.MatMul:
			return []shape.Shape{shape.New(130, 170), shape.New(170, 90)}
		case op.Add, op.Sub, op.Hadamard:
			return []shape.Shape{shape.New(130, 170), shape.New(130, 170)}
		case op.AddBias:
			return []shape.Shape{shape.New(130, 170), shape.New(1, 170)}
		case op.Inverse:
			return []shape.Shape{shape.New(60, 60)}
		}
		return []shape.Shape{shape.New(130, 170)}
	}
	cl := costmodel.LocalTest(3)
	env := core.NewEnv(cl, format.All())
	for _, im := range impl.All() {
		o := op.Op{Kind: im.Op}
		if im.Op == op.ScalarMul {
			o.Scalar = -2.5
		}
		shapes := argShapes(im.Op)
		// run forces im over the c-th assignment of candidate formats to
		// its arguments, sparse-format arguments drawn at sparseDensity,
		// and reports whether the type function accepted it and whether
		// any argument was CSR.
		run := func(c int, sparseDensity float64) (accepted, csr bool) {
			rng := rand.New(rand.NewSource(int64(im.ID)*1000 + int64(c)))
			g := core.NewGraph()
			ins := make([]impl.Input, len(shapes))
			args := make([]*core.Vertex, len(shapes))
			inputs := make(map[string]*tensor.Dense, len(shapes))
			for j, s := range shapes {
				f := candidates[(c/pow(len(candidates), j))%len(candidates)]
				density := 1.0
				m := tensor.RandNormal(rng, int(s.Rows), int(s.Cols))
				csr = csr || f.Kind == format.CSRSingle || f.Kind == format.CSRRowStrip
				if f.IsSparse() {
					density = sparseDensity
					if density < 1 {
						m = tensor.RandSparse(rng, int(s.Rows), int(s.Cols), density)
					}
				}
				if im.Op == op.Inverse {
					for i := 0; i < m.Rows; i++ {
						m.Set(i, i, m.At(i, i)+float64(m.Rows))
					}
				}
				if !f.Valid(s, density, cl.MaxTupleBytes) {
					return false, csr
				}
				name := fmt.Sprintf("in%d", j)
				ins[j] = impl.Input{Shape: s, Density: density, Format: f}
				args[j] = g.Input(name, s, density, f)
				inputs[name] = m
			}
			v := g.MustApply(o, args...)
			out, ok := im.Apply(o, ins, v.Shape, v.Density, cl)
			if !ok {
				return false, csr
			}
			label := fmt.Sprintf("%s%v", im.Name, ins)
			pp := enginetest.Lower(t, env, handAnn(t, g, im.Name, out.Format))
			want := enginetest.Run(t, engine.New(cl), pp, inputs)
			checkOracle(t, label, g, inputs, want)
			for _, shards := range []int{2, 7} {
				rt, err := dist.New(cl, dist.Config{Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := rt.RunPlan(context.Background(), pp, inputs)
				if err != nil {
					t.Fatalf("%s @%d shards: %v", label, shards, err)
				}
				compareSinks(t, fmt.Sprintf("%s @%d shards", label, shards), pp, want, got)
			}
			return true, csr
		}
		// Enumerate every assignment of candidate formats to arguments.
		combos := 1
		for range shapes {
			combos *= len(candidates)
		}
		ran, csrRan, fullRan := 0, false, false
		for c := 0; c < combos; c++ {
			accepted, csr := run(c, 0.05)
			if !accepted {
				continue
			}
			ran++
			if csr {
				csrRan = true
				// Once per implementation, CSR arguments that store every
				// cell: a full CSR operand takes the GEMM tile.
				if !fullRan {
					fullRan, _ = run(c, 1)
				}
			}
		}
		if ran == 0 {
			t.Errorf("%s: its type function accepted no candidate format combination", im.Name)
		}
		if csrRan && !fullRan {
			t.Errorf("%s: its type function accepted no CSR combination at density 1", im.Name)
		}
	}
}

func pow(b, e int) int {
	p := 1
	for ; e > 0; e-- {
		p *= b
	}
	return p
}
