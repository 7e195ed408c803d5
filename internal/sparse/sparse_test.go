package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"matopt/internal/tensor"
)

// TestCOODenseRoundTrip: the triples FromDenseCOO lists rebuild the
// matrix, in strictly ascending (Row, Col) order, one per non-zero.
func TestCOODenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := tensor.RandSparse(rng, 30, 40, 0.2)
	ts := FromDenseCOO(d)
	back := tensor.NewDense(d.Rows, d.Cols)
	for k, tr := range ts {
		if k > 0 && (tr.Row < ts[k-1].Row || tr.Row == ts[k-1].Row && tr.Col <= ts[k-1].Col) {
			t.Fatalf("triple %d %v does not follow %v", k, tr, ts[k-1])
		}
		back.Set(tr.Row, tr.Col, tr.Val)
	}
	if !tensor.BitEqual(back, d) {
		t.Fatal("COO round trip mismatch")
	}
	if want := d.Density() * float64(d.Rows*d.Cols); math.Abs(float64(len(ts))-want) > 1e-9 {
		t.Fatalf("%d triples, want %v", len(ts), want)
	}
}

func TestCSRRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := tensor.RandSparse(rng, 25, 35, 0.15)
	if !tensor.BitEqual(FromDense(d).ToDense(), d) {
		t.Fatal("CSR↔dense round trip mismatch")
	}
}

// TestFromDenseMatchesCOOPath: the two-pass FromDense builds, array for
// array, the CSR of the triples FromDenseCOO lists — at every density,
// with an all-zero row, and with −0 (dropped: it equals zero) and NaN
// (kept: it does not) among the cells.
func TestFromDenseMatchesCOOPath(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, density := range []float64{0, 0.01, 0.4, 1} {
		d := tensor.RandSparse(rng, 19, 37, density)
		for j := 0; j < d.Cols; j++ {
			d.Set(7, j, 0)
		}
		d.Set(3, 5, math.Copysign(0, -1))
		d.Set(3, 6, math.NaN())
		d.Set(18, 36, math.NaN())
		got, want := FromDense(d), csrOfTriples(d.Rows, d.Cols, FromDenseCOO(d))
		if got.Rows != want.Rows || got.Cols != want.Cols || !reflect.DeepEqual(got.RowPtr, want.RowPtr) ||
			!reflect.DeepEqual(got.ColIdx, want.ColIdx) || len(got.Val) != len(want.Val) {
			t.Fatalf("density %g: structure differs:\n got %v %v\nwant %v %v", density, got.RowPtr, got.ColIdx, want.RowPtr, want.ColIdx)
		}
		for k := range got.Val {
			if math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
				t.Fatalf("density %g: Val[%d] = %x, want %x", density, k, math.Float64bits(got.Val[k]), math.Float64bits(want.Val[k]))
			}
		}
		if _, err := NewCSR(got.Rows, got.Cols, got.RowPtr, got.ColIdx, got.Val); err != nil {
			t.Fatalf("density %g: %v", density, err)
		}
	}
}

// csrOfTriples assembles row-major triples into CSR arrays.
func csrOfTriples(rows, cols int, ts []Triple) *CSR {
	m := &CSR{Rows: rows, Cols: cols, RowPtr: make([]int, rows+1),
		ColIdx: make([]int, len(ts)), Val: make([]float64, len(ts))}
	for k, tr := range ts {
		m.RowPtr[tr.Row+1]++
		m.ColIdx[k], m.Val[k] = tr.Col, tr.Val
	}
	for i := 0; i < rows; i++ {
		m.RowPtr[i+1] += m.RowPtr[i]
	}
	return m
}

func TestNewCSRValidation(t *testing.T) {
	cases := []struct {
		name   string
		rows   int
		rowPtr []int
		colIdx []int
		val    []float64
	}{
		{"short rowptr", 2, []int{0, 1}, []int{0}, []float64{1}},
		{"nonzero start", 2, []int{1, 1, 1}, nil, nil},
		{"non-monotone", 2, []int{0, 2, 1}, []int{0}, []float64{1}},
		{"bad col", 2, []int{0, 1, 1}, []int{5}, []float64{1}},
		{"descending cols", 1, []int{0, 2}, []int{1, 0}, []float64{1, 2}},
		{"len mismatch", 1, []int{0, 2}, []int{0, 1}, []float64{1}},
	}
	for _, c := range cases {
		if _, err := NewCSR(c.rows, 2, c.rowPtr, c.colIdx, c.val); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	if _, err := NewCSR(2, 2, []int{0, 1, 2}, []int{0, 1}, []float64{1, 2}); err != nil {
		t.Errorf("valid CSR rejected: %v", err)
	}
}

func TestCSRMulDenseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := tensor.RandSparse(rng, 20, 30, 0.1)
	b := tensor.RandNormal(rng, 30, 12)
	got := FromDense(a).MulDenseK(tensor.K{}, b)
	want := tensor.MatMul(a, b)
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("MulDense diff %g", diff)
	}
}

func TestCSRRowSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := tensor.RandSparse(rng, 12, 9, 0.3)
	m := FromDense(d)
	s := m.RowSlice(3, 8)
	if !tensor.BitEqual(s.ToDense(), d.Slice(3, 8, 0, 9)) {
		t.Fatal("RowSlice mismatch")
	}
	defer func() {
		if recover() == nil {
			t.Error("bad RowSlice should panic")
		}
	}()
	m.RowSlice(8, 3)
}

func TestEstimateMatMulDensity(t *testing.T) {
	if d := EstimateMatMulDensity(1, 1, 100); d != 1 {
		t.Errorf("dense×dense = %v", d)
	}
	if d := EstimateMatMulDensity(0, 0.5, 100); d != 0 {
		t.Errorf("empty input = %v", d)
	}
	// Tiny densities: ≈ da·db·k.
	if d := EstimateMatMulDensity(1e-5, 1e-5, 1000); math.Abs(d-1e-7) > 1e-12 {
		t.Errorf("tiny-density linearization = %v", d)
	}
	// Exact check against direct formula for moderate values.
	da, db, k := 0.3, 0.2, int64(7)
	want := 1 - math.Pow(1-da*db, float64(k))
	if d := EstimateMatMulDensity(da, db, k); math.Abs(d-want) > 1e-12 {
		t.Errorf("moderate density = %v, want %v", d, want)
	}
}

func TestEstimateDensityMonotoneProperty(t *testing.T) {
	f := func(a8, b8 uint8, k8 uint8) bool {
		da := float64(a8) / 512 // in [0, ~0.5)
		db := float64(b8) / 512
		k := int64(k8) + 1
		d1 := EstimateMatMulDensity(da, db, k)
		d2 := EstimateMatMulDensity(da, db, k+5)
		return d1 >= 0 && d1 <= 1 && d2 >= d1-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSparseDensityEstimateTracksEmpirical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := tensor.RandSparse(rng, 120, 100, 0.05)
	b := tensor.RandSparse(rng, 100, 120, 0.05)
	got := tensor.MatMul(a, b).Density()
	want := EstimateMatMulDensity(0.05, 0.05, 100)
	if math.Abs(got-want) > 0.1*want+0.02 {
		t.Errorf("empirical density %v vs estimate %v", got, want)
	}
}

func TestRelativeError(t *testing.T) {
	if RelativeError(10, 10) != 1 {
		t.Error("perfect estimate must be 1.0")
	}
	if RelativeError(20, 10) != 2 || RelativeError(10, 20) != 2 {
		t.Error("relative error must be symmetric")
	}
	if !math.IsInf(RelativeError(0, 5), 1) {
		t.Error("zero-vs-nonzero must be +Inf")
	}
	if RelativeError(0, 0) != 1 {
		t.Error("zero-vs-zero is perfect")
	}
}
