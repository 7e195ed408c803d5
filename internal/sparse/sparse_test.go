package sparse

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"matopt/internal/tensor"
)

func TestNewCOOValidatesSortsCoalesces(t *testing.T) {
	m, err := NewCOO(3, 3, []Triple{
		{2, 2, 1}, {0, 1, 2}, {0, 1, 3}, {1, 0, 0}, // dup (0,1), explicit zero
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2 (coalesced, zero dropped): %v", m.NNZ(), m.Triples)
	}
	if m.Triples[0] != (Triple{0, 1, 5}) || m.Triples[1] != (Triple{2, 2, 1}) {
		t.Fatalf("triples = %v", m.Triples)
	}
	if _, err := NewCOO(2, 2, []Triple{{2, 0, 1}}); err == nil {
		t.Fatal("out-of-range triple accepted")
	}
	if _, err := NewCOO(0, 2, nil); err == nil {
		t.Fatal("zero rows accepted")
	}
}

func TestCOODenseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := tensor.RandSparse(rng, 30, 40, 0.2)
	c := FromDenseCOO(d)
	if !tensor.Equal(c.ToDense(), d, 0) {
		t.Fatal("COO round trip mismatch")
	}
	if math.Abs(c.Density()-d.Density()) > 1e-12 {
		t.Fatalf("Density %v vs dense %v", c.Density(), d.Density())
	}
	if c.Bytes() != int64(c.NNZ())*16 {
		t.Fatalf("Bytes = %d", c.Bytes())
	}
}

func TestCSRRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := tensor.RandSparse(rng, 25, 35, 0.15)
	m := FromDense(d)
	if !tensor.Equal(m.ToDense(), d, 0) {
		t.Fatal("CSR↔dense round trip mismatch")
	}
	if !tensor.Equal(m.ToCOO().ToDense(), d, 0) {
		t.Fatal("CSR→COO round trip mismatch")
	}
	if !tensor.Equal(FromCOO(m.ToCOO()).ToDense(), d, 0) {
		t.Fatal("COO→CSR round trip mismatch")
	}
}

// TestFromDenseMatchesCOOPath: the two-pass FromDense builds, array for
// array, what the route through sorted triples built — at every density,
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
		got, want := FromDense(d), FromCOO(FromDenseCOO(d))
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
	got := FromDense(a).MulDense(b)
	want := tensor.MatMul(a, b)
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("MulDense diff %g", diff)
	}
}

func TestCSRTransposeMulDense(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := tensor.RandSparse(rng, 20, 30, 0.1)
	b := tensor.RandNormal(rng, 20, 9)
	got := FromDense(a).TransposeMulDense(b)
	want := tensor.MatMul(tensor.Transpose(a), b)
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("TransposeMulDense diff %g", diff)
	}
}

func TestCSRMulSparseMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := tensor.RandSparse(rng, 15, 25, 0.15)
	b := tensor.RandSparse(rng, 25, 18, 0.15)
	got := FromDense(a).Mul(FromDense(b)).ToDense()
	want := tensor.MatMul(a, b)
	if diff := tensor.MaxAbsDiff(got, want); diff > 1e-9 {
		t.Fatalf("sparse Mul diff %g", diff)
	}
}

func TestCSRRowSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	d := tensor.RandSparse(rng, 12, 9, 0.3)
	m := FromDense(d)
	s := m.RowSlice(3, 8)
	if !tensor.Equal(s.ToDense(), d.Slice(3, 8, 0, 9), 0) {
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
	prod := FromDense(a).Mul(FromDense(b))
	got := prod.Density()
	want := EstimateMatMulDensity(0.05, 0.05, 100)
	if math.Abs(got-want) > 0.1*want+0.02 {
		t.Errorf("empirical density %v vs estimate %v", got, want)
	}
}

// The constructors refuse empty shapes, the zero values do not: their
// density is 0, not the NaN of 0/0.
func TestCSRDensityOfEmptyMatrix(t *testing.T) {
	if d := new(CSR).Density(); d != 0 {
		t.Fatalf("Density of an empty CSR = %v, want 0", d)
	}
}

func TestCOODensityOfEmptyMatrix(t *testing.T) {
	if d := new(COO).Density(); d != 0 {
		t.Fatalf("Density of an empty COO = %v, want 0", d)
	}
}
