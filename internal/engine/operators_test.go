package engine

import (
	"math/rand"
	"reflect"
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/op"
	"matopt/internal/shape"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// runExec loads inputs in the given formats, runs one named operator of
// the table and collects the result.
func runExec(t *testing.T, name string, o op.Op, outShape shape.Shape, mats []*tensor.Dense, fmts []format.Format) *tensor.Dense {
	t.Helper()
	e := New(costmodel.LocalTest(4))
	rels := make([]*Relation, len(mats))
	for i := range mats {
		r, err := load(e, mats[i], fmts[i])
		if err != nil {
			t.Fatalf("%s: load %d: %v", name, i, err)
		}
		rels[i] = r
	}
	return runOp(t, e, name, o, outShape, rels)
}

// TestOperatorTableComplete ties the two registries together: every
// implementation the optimizer can choose has an operator, and the table
// holds no name the optimizer does not know.
func TestOperatorTableComplete(t *testing.T) {
	for _, im := range impl.All() {
		if operators[im.Name] == nil {
			t.Errorf("implementation %q has no operator", im.Name)
		}
	}
	for name := range operators {
		if impl.ByName(name) == nil {
			t.Errorf("operator %q names no registered implementation", name)
		}
	}
	if len(operators) != len(impl.All()) {
		t.Errorf("%d operators for %d implementations", len(operators), len(impl.All()))
	}
}

func TestUnaryAndBiasExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := tensor.RandNormal(rng, 250, 120)
	bias := tensor.RandNormal(rng, 1, 120)
	s := shape.New(250, 120)

	cases := []struct {
		name string
		o    op.Op
		out  shape.Shape
		ins  []*tensor.Dense
		fmts []format.Format
		want *tensor.Dense
	}{
		{"relu-map", op.Op{Kind: op.ReLU}, s, []*tensor.Dense{m},
			[]format.Format{format.NewTile(100)}, tensor.K{}.ReLU(m)},
		{"relugrad-map", op.Op{Kind: op.ReLUGrad}, s, []*tensor.Dense{m},
			[]format.Format{format.NewRowStrip(100)}, tensor.K{}.ReLUGrad(m)},
		{"sigmoid-map", op.Op{Kind: op.Sigmoid}, s, []*tensor.Dense{m},
			[]format.Format{format.NewColStrip(100)}, tensor.K{}.Sigmoid(m)},
		{"exp-map", op.Op{Kind: op.Exp}, s, []*tensor.Dense{m},
			[]format.Format{format.NewSingle()}, tensor.K{}.Exp(m)},
		{"neg-map", op.Op{Kind: op.Neg}, s, []*tensor.Dense{m},
			[]format.Format{format.NewTile(100)}, tensor.K{}.Neg(m)},
		{"scalarmul-map", op.Op{Kind: op.ScalarMul, Scalar: -2.5}, s, []*tensor.Dense{m},
			[]format.Format{format.NewTile(100)}, tensor.K{}.Scale(m, -2.5)},
		{"softmax-single", op.Op{Kind: op.Softmax}, s, []*tensor.Dense{m},
			[]format.Format{format.NewSingle()}, tensor.K{}.Softmax(m)},
		{"softmax-rowstrip", op.Op{Kind: op.Softmax}, s, []*tensor.Dense{m},
			[]format.Format{format.NewRowStrip(100)}, tensor.K{}.Softmax(m)},
		{"addbias-single", op.Op{Kind: op.AddBias}, s, []*tensor.Dense{m, bias},
			[]format.Format{format.NewSingle(), format.NewSingle()}, tensor.K{}.AddBias(m, bias)},
		{"addbias-rowstrip-bcast", op.Op{Kind: op.AddBias}, s, []*tensor.Dense{m, bias},
			[]format.Format{format.NewRowStrip(100), format.NewSingle()}, tensor.K{}.AddBias(m, bias)},
		{"rowsums-single", op.Op{Kind: op.RowSums}, shape.New(250, 1), []*tensor.Dense{m},
			[]format.Format{format.NewSingle()}, tensor.K{}.RowSums(m)},
		{"rowsums-rowstrip", op.Op{Kind: op.RowSums}, shape.New(250, 1), []*tensor.Dense{m},
			[]format.Format{format.NewRowStrip(100)}, tensor.K{}.RowSums(m)},
		{"colsums-single", op.Op{Kind: op.ColSums}, shape.New(1, 120), []*tensor.Dense{m},
			[]format.Format{format.NewSingle()}, tensor.K{}.ColSums(m)},
		{"colsums-colstrip", op.Op{Kind: op.ColSums}, shape.New(1, 120), []*tensor.Dense{m},
			[]format.Format{format.NewColStrip(100)}, tensor.K{}.ColSums(m)},
		{"sub-single", op.Op{Kind: op.Sub}, s, []*tensor.Dense{m, tensor.K{}.Scale(m, 0.5)},
			[]format.Format{format.NewSingle(), format.NewSingle()}, tensor.K{}.Scale(m, 0.5)},
		{"hadamard-copart", op.Op{Kind: op.Hadamard}, s, []*tensor.Dense{m, m},
			[]format.Format{format.NewTile(100), format.NewTile(100)}, tensor.K{}.Hadamard(m, m)},
	}
	for _, c := range cases {
		got := runExec(t, c.name, c.o, c.out, c.ins, c.fmts)
		if diff := tensor.MaxAbsDiff(got, c.want); diff > 1e-9 {
			t.Errorf("%s deviates by %g", c.name, diff)
		}
	}
}

func TestTransposeExecutors(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := tensor.RandNormal(rng, 240, 130)
	want := tensor.K{}.Transpose(m)
	out := shape.New(130, 240)
	for _, c := range []struct {
		name string
		f    format.Format
	}{
		{"transpose-single", format.NewSingle()},
		{"transpose-tile", format.NewTile(100)},
		{"transpose-strip", format.NewRowStrip(100)},
		{"transpose-strip", format.NewColStrip(100)},
	} {
		got := runExec(t, c.name, op.Op{Kind: op.Transpose}, out, []*tensor.Dense{m}, []format.Format{c.f})
		if diff := tensor.MaxAbsDiff(got, want); diff > 1e-12 {
			t.Errorf("%s from %v deviates by %g", c.name, c.f, diff)
		}
	}
	sp := tensor.RandSparse(rng, 240, 130, 0.1)
	got := runExec(t, "transpose-csr-single", op.Op{Kind: op.Transpose}, out,
		[]*tensor.Dense{sp}, []format.Format{format.NewCSRSingle()})
	if diff := tensor.MaxAbsDiff(got, tensor.K{}.Transpose(sp)); diff > 1e-12 {
		t.Errorf("transpose-csr-single deviates by %g", diff)
	}
}

func TestReluOnSparseRelation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := tensor.RandSparse(rng, 300, 200, 0.05)
	// Make some entries negative so relu has work to do.
	for i := range m.Data {
		if m.Data[i] != 0 && i%3 == 0 {
			m.Data[i] = -m.Data[i]
		}
	}
	got := runExec(t, "relu-map", op.Op{Kind: op.ReLU}, shape.New(300, 200),
		[]*tensor.Dense{m}, []format.Format{format.NewCSRSingle()})
	if diff := tensor.MaxAbsDiff(got, tensor.K{}.ReLU(m)); diff > 1e-12 {
		t.Errorf("relu on CSR deviates by %g", diff)
	}
}

func TestInverseExecutor(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	m := tensor.RandNormal(rng, 80, 80)
	for i := 0; i < 80; i++ {
		m.Set(i, i, m.At(i, i)+80)
	}
	got := runExec(t, "inverse-single", op.Op{Kind: op.Inverse}, shape.New(80, 80),
		[]*tensor.Dense{m}, []format.Format{format.NewSingle()})
	if diff := tensor.MaxAbsDiff(tensor.MatMul(m, got), tensor.Identity(80)); diff > 1e-8 {
		t.Errorf("inverse executor off by %g", diff)
	}
}

func TestStatsAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	e := New(costmodel.LocalTest(4))
	m := tensor.RandNormal(rng, 200, 200)
	ra, err := load(e, m, format.NewSingle())
	if err != nil {
		t.Fatal(err)
	}
	rb, err := load(e, m, format.NewColStrip(100))
	if err != nil {
		t.Fatal(err)
	}
	before := e.Stats()
	runOp(t, e, "mm-bcast-single-colstrip", op.Op{Kind: op.MatMul}, shape.New(200, 200), []*Relation{ra, rb})
	after := e.Stats()
	if after.FLOPs-before.FLOPs != 2*200*200*200 {
		t.Errorf("FLOPs delta = %d", after.FLOPs-before.FLOPs)
	}
	if fresh := New(costmodel.LocalTest(4)).Stats(); fresh != (Stats{}) {
		t.Errorf("a fresh engine starts at %+v", fresh)
	}
}

// TestCSRColSliceIsTheDenseSlice: a column slice of a CSR matrix is the
// CSR of the dense matrix's column slice — empty rows, rows with nothing
// inside the slice and slices at either edge included.
func TestCSRColSliceIsTheDenseSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, density := range []float64{0.02, 0.3, 1} {
		d := tensor.RandSparse(rng, 17, 40, density)
		for j := 0; j < d.Cols; j++ {
			d.Set(4, j, 0)
		}
		m := sparse.FromDense(d)
		for _, c := range [][2]int{{0, 40}, {0, 1}, {39, 40}, {7, 23}, {16, 17}} {
			got, want := csrColSlice(m, c[0], c[1]), sparse.FromDense(d.Slice(0, d.Rows, c[0], c[1]))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("density %g columns [%d,%d): got %+v, want %+v", density, c[0], c[1], got, want)
			}
		}
	}
}
