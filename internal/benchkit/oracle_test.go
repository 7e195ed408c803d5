package benchkit

import (
	"math"
	"testing"

	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// evalOne applies a single operation to literal inputs through Eval.
func evalOne(t *testing.T, o op.Op, ins ...*Mat) *Mat {
	t.Helper()
	g := core.NewGraph()
	inputs := map[string]*Mat{}
	var vs []*core.Vertex
	for i, m := range ins {
		name := string(rune('A' + i))
		vs = append(vs, g.Input(name, shape.New(int64(m.Rows), int64(m.Cols)), 1, format.NewSingle()))
		inputs[name] = m
	}
	out := g.MustApply(o, vs...)
	outs, err := Eval(g, inputs)
	if err != nil {
		t.Fatalf("%v: %v", o, err)
	}
	return outs[out.ID]
}

func wantMat(t *testing.T, what string, got *Mat, rows [][]float64, tol float64) {
	t.Helper()
	want := MatFromRows(rows)
	if e := RelErr(got, want); e > tol {
		t.Errorf("%s = %v, want %v (rel err %g)", what, got.Data, want.Data, e)
	}
}

// Every expected matrix below was worked out by hand.
func TestOracleHandComputedCases(t *testing.T) {
	a := MatFromRows([][]float64{{1, 2}, {3, 4}})
	b := MatFromRows([][]float64{{5, 6}, {7, 8}})
	wantMat(t, "A×B", evalOne(t, op.Op{Kind: op.MatMul}, a, b), [][]float64{{19, 22}, {43, 50}}, 0)
	wantMat(t, "A+B", evalOne(t, op.Op{Kind: op.Add}, a, b), [][]float64{{6, 8}, {10, 12}}, 0)
	wantMat(t, "A−B", evalOne(t, op.Op{Kind: op.Sub}, a, b), [][]float64{{-4, -4}, {-4, -4}}, 0)
	wantMat(t, "A∘B", evalOne(t, op.Op{Kind: op.Hadamard}, a, b), [][]float64{{5, 12}, {21, 32}}, 0)
	wantMat(t, "2.5·A", evalOne(t, op.Op{Kind: op.ScalarMul, Scalar: 2.5}, a), [][]float64{{2.5, 5}, {7.5, 10}}, 0)
	wantMat(t, "−A", evalOne(t, op.Op{Kind: op.Neg}, a), [][]float64{{-1, -2}, {-3, -4}}, 0)
	wantMat(t, "rowsums", evalOne(t, op.Op{Kind: op.RowSums}, a), [][]float64{{3}, {7}}, 0)
	wantMat(t, "colsums", evalOne(t, op.Op{Kind: op.ColSums}, a), [][]float64{{4, 6}}, 0)
	wantMat(t, "A+bias", evalOne(t, op.Op{Kind: op.AddBias}, a, MatFromRows([][]float64{{10, 20}})),
		[][]float64{{11, 22}, {13, 24}}, 0)
	// det A = −2, so A⁻¹ = −½·[[4, −2], [−3, 1]].
	wantMat(t, "A⁻¹", evalOne(t, op.Op{Kind: op.Inverse}, a), [][]float64{{-2, 1}, {1.5, -0.5}}, 1e-15)

	// A 2×3 by 3×2 product and a 2×3 transpose.
	r := MatFromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	c := MatFromRows([][]float64{{7, 8}, {9, 10}, {11, 12}})
	wantMat(t, "R×C", evalOne(t, op.Op{Kind: op.MatMul}, r, c), [][]float64{{58, 64}, {139, 154}}, 0)
	wantMat(t, "Rᵀ", evalOne(t, op.Op{Kind: op.Transpose}, r), [][]float64{{1, 4}, {2, 5}, {3, 6}}, 0)

	// A 3×3 inverse that needs a row exchange (the leading entry is 0):
	// M = [[0,1,2],[1,0,3],[4,−3,8]], det M = −2,
	// M⁻¹ = [[−4.5, 7, −1.5], [−2, 4, −1], [1.5, −2, 0.5]].
	m := MatFromRows([][]float64{{0, 1, 2}, {1, 0, 3}, {4, -3, 8}})
	wantMat(t, "M⁻¹", evalOne(t, op.Op{Kind: op.Inverse}, m),
		[][]float64{{-4.5, 7, -1.5}, {-2, 4, -1}, {1.5, -2, 0.5}}, 1e-14)

	s := MatFromRows([][]float64{{-1, 0}, {2, -3}})
	wantMat(t, "relu", evalOne(t, op.Op{Kind: op.ReLU}, s), [][]float64{{0, 0}, {2, 0}}, 0)
	wantMat(t, "relu'", evalOne(t, op.Op{Kind: op.ReLUGrad}, s), [][]float64{{0, 0}, {1, 0}}, 0)
	z := MatFromRows([][]float64{{0, math.Log(3)}})
	wantMat(t, "exp", evalOne(t, op.Op{Kind: op.Exp}, z), [][]float64{{1, 3}}, 1e-15)
	wantMat(t, "sigmoid", evalOne(t, op.Op{Kind: op.Sigmoid}, z), [][]float64{{0.5, 0.75}}, 1e-15)
	// softmax of (0, ln 3) is (1, 3)/4; of equal entries, uniform — and
	// a huge shift must not overflow.
	wantMat(t, "softmax", evalOne(t, op.Op{Kind: op.Softmax},
		MatFromRows([][]float64{{0, math.Log(3)}, {1000, 1000}})), [][]float64{{0.25, 0.75}, {0.5, 0.5}}, 1e-15)
}

// A shared intermediate (a DAG, not a tree) and two sinks:
// T = A×B; O1 = T+T; O2 = Tᵀ.
func TestOracleWalksDAGAndReturnsSinks(t *testing.T) {
	g := core.NewGraph()
	sq := shape.New(2, 2)
	va := g.Input("A", sq, 1, format.NewSingle())
	vb := g.Input("B", sq, 1, format.NewSingle())
	vt := g.MustApply(op.Op{Kind: op.MatMul}, va, vb)
	o1 := g.MustApply(op.Op{Kind: op.Add}, vt, vt)
	o2 := g.MustApply(op.Op{Kind: op.Transpose}, vt)
	outs, err := Eval(g, map[string]*Mat{
		"A": MatFromRows([][]float64{{1, 2}, {3, 4}}),
		"B": MatFromRows([][]float64{{5, 6}, {7, 8}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 2 {
		t.Fatalf("Eval returned %d outputs, want the 2 sinks", len(outs))
	}
	wantMat(t, "T+T", outs[o1.ID], [][]float64{{38, 44}, {86, 100}}, 0)
	wantMat(t, "Tᵀ", outs[o2.ID], [][]float64{{19, 43}, {22, 50}}, 0)
}

func TestOracleRejectsBadInputs(t *testing.T) {
	g := core.NewGraph()
	va := g.Input("A", shape.New(2, 2), 1, format.NewSingle())
	g.MustApply(op.Op{Kind: op.Inverse}, va)
	if _, err := Eval(g, map[string]*Mat{}); err == nil {
		t.Errorf("a missing input was accepted")
	}
	if _, err := Eval(g, map[string]*Mat{"A": NewMat(3, 2)}); err == nil {
		t.Errorf("a mis-shaped input was accepted")
	}
	if _, err := Eval(g, map[string]*Mat{"A": MatFromRows([][]float64{{1, 2}, {2, 4}})}); err == nil {
		t.Errorf("a singular matrix was inverted")
	}
}

func TestRelErr(t *testing.T) {
	want := MatFromRows([][]float64{{100, -200}})
	if e := RelErr(MatFromRows([][]float64{{100, -200.002}}), want); math.Abs(e-1e-5) > 1e-12 {
		t.Errorf("RelErr = %g, want 1e-5", e)
	}
	if e := RelErr(NewMat(1, 2), NewMat(1, 2)); e != 0 {
		t.Errorf("RelErr of zeros = %g, want 0", e)
	}
	for _, got := range []*Mat{nil, NewMat(2, 1), MatFromRows([][]float64{{math.NaN(), 0}})} {
		if e := RelErr(got, want); !math.IsInf(e, 1) {
			t.Errorf("RelErr(%v) = %g, want +Inf", got, e)
		}
	}
}
