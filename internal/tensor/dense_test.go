package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZeroed(t *testing.T) {
	m := NewDense(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("NewDense(3,4) = %+v", m)
	}
	for _, v := range m.Data {
		if v != 0 {
			t.Fatal("NewDense not zeroed")
		}
	}
}

func TestNewDensePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewDense(0, 1) should panic")
		}
	}()
	NewDense(0, 1)
}

func TestAtSetClone(t *testing.T) {
	m := NewDense(2, 2)
	m.Set(1, 0, 3.5)
	if m.At(1, 0) != 3.5 {
		t.Fatalf("At(1,0) = %v", m.At(1, 0))
	}
	c := m.Clone()
	c.Set(1, 0, -1)
	if m.At(1, 0) != 3.5 {
		t.Fatal("Clone aliases original")
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("FromRows wrong layout: %v", m.Data)
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged FromRows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestSliceAndSetSlice(t *testing.T) {
	m := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}})
	s := m.Slice(1, 3, 0, 2)
	want := FromRows([][]float64{{4, 5}, {7, 8}})
	if !BitEqual(s, want) {
		t.Fatalf("Slice = %v", s.Data)
	}
	s.Set(0, 0, 99)
	if m.At(1, 0) != 4 {
		t.Fatal("Slice aliases parent")
	}
	m.SetSlice(0, 1, FromRows([][]float64{{-1, -2}}))
	if m.At(0, 1) != -1 || m.At(0, 2) != -2 {
		t.Fatalf("SetSlice wrong: %v", m.Data)
	}
}

func TestSliceBoundsPanic(t *testing.T) {
	m := NewDense(2, 2)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range Slice should panic")
		}
	}()
	m.Slice(0, 3, 0, 1)
}

func TestMatMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	got := MatMul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !(MaxAbsDiff(got, want) <= 1e-12) {
		t.Fatalf("MatMul = %v", got.Data)
	}
}

func TestMatMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := RandNormal(rng, 17, 23)
	if !(MaxAbsDiff(MatMul(a, Identity(23)), a) <= 1e-12) {
		t.Fatal("a×I != a")
	}
	if !(MaxAbsDiff(MatMul(Identity(17), a), a) <= 1e-12) {
		t.Fatal("I×a != a")
	}
}

// naiveMatMul is an unblocked reference implementation. Each product is
// fused into its add with math.FMA, one rounding (KERNELS.md §2, Rule 3),
// as every kernel body does on every architecture.
func naiveMatMul(a, b *Dense) *Dense {
	out := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s = math.FMA(a.At(i, k), b.At(k, j), s)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func TestMatMulMatchesNaiveAcrossBlockBoundaries(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Sizes straddling the 64-wide blocking.
	for _, d := range [][3]int{{1, 1, 1}, {63, 64, 65}, {64, 64, 64}, {65, 1, 130}, {7, 129, 5}} {
		a := RandNormal(rng, d[0], d[1])
		b := RandNormal(rng, d[1], d[2])
		if diff := MaxAbsDiff(MatMul(a, b), naiveMatMul(a, b)); diff > 1e-9 {
			t.Errorf("dims %v: blocked vs naive diff %g", d, diff)
		}
	}
}

func TestMatMulPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MatMul dim mismatch should panic")
		}
	}()
	MatMul(NewDense(2, 3), NewDense(4, 2))
}

func TestElementwiseOps(t *testing.T) {
	a := FromRows([][]float64{{1, -2}, {3, 0}})
	b := FromRows([][]float64{{4, 5}, {-6, 2}})
	if !BitEqual(K{}.Add(a, b), FromRows([][]float64{{5, 3}, {-3, 2}})) {
		t.Error("Add wrong")
	}
	if !BitEqual(K{}.Sub(a, b), FromRows([][]float64{{-3, -7}, {9, -2}})) {
		t.Error("Sub wrong")
	}
	if !BitEqual(K{}.Hadamard(a, b), FromRows([][]float64{{4, -10}, {-18, 0}})) {
		t.Error("Hadamard wrong")
	}
	c := a.Clone()
	K{}.AddInPlace(c, b)
	if !BitEqual(c, K{}.Add(a, b)) {
		t.Error("AddInPlace wrong")
	}
}

func TestTransposeMatchesManual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := RandNormal(rng, 45, 70) // straddles the 32-wide blocking
	at := K{}.Transpose(a)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			if at.At(j, i) != a.At(i, j) {
				t.Fatalf("Transpose wrong at (%d,%d)", i, j)
			}
		}
	}
}

func TestScaleRowColSums(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	if !BitEqual(K{}.Scale(a, 2), FromRows([][]float64{{2, 4, 6}, {8, 10, 12}})) {
		t.Error("Scale wrong")
	}
	if !BitEqual(K{}.RowSums(a), FromRows([][]float64{{6}, {15}})) {
		t.Error("RowSums wrong")
	}
	if !BitEqual(K{}.ColSums(a), FromRows([][]float64{{5, 7, 9}})) {
		t.Error("ColSums wrong")
	}
}

func TestAddBias(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	bias := FromRows([][]float64{{10, 20}})
	if !BitEqual(K{}.AddBias(a, bias), FromRows([][]float64{{11, 22}, {13, 24}})) {
		t.Error("AddBias wrong")
	}
	defer func() {
		if recover() == nil {
			t.Error("AddBias shape mismatch should panic")
		}
	}()
	K{}.AddBias(a, FromRows([][]float64{{1, 2, 3}}))
}

func TestUnaryOps(t *testing.T) {
	a := FromRows([][]float64{{-1, 0}, {2, -3}})
	if !BitEqual(K{}.ReLU(a), FromRows([][]float64{{0, 0}, {2, 0}})) {
		t.Error("ReLU wrong")
	}
	if !BitEqual(K{}.ReLUGrad(a), FromRows([][]float64{{0, 0}, {1, 0}})) {
		t.Error("ReLUGrad wrong")
	}
	if !BitEqual(K{}.Neg(a), FromRows([][]float64{{1, math.Copysign(0, -1)}, {-2, 3}})) {
		t.Error("Neg wrong")
	}
	s := K{}.Sigmoid(FromRows([][]float64{{0}}))
	if math.Abs(s.At(0, 0)-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0) = %v", s.At(0, 0))
	}
	e := K{}.Exp(FromRows([][]float64{{0, 1}}))
	if math.Abs(e.At(0, 0)-1) > 1e-12 || math.Abs(e.At(0, 1)-math.E) > 1e-12 {
		t.Errorf("Exp wrong: %v", e.Data)
	}
}

// TestReLUBits holds ReLU and ReLUGrad to their scalar definitions, bit
// for bit, on the values a bit trick could get wrong: both zeros, both
// infinities, NaNs of both signs and payloads, the extreme subnormals
// and normals, and ±1.
func TestReLUBits(t *testing.T) {
	nan := math.Float64bits(math.NaN())
	vals := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1),
		math.NaN(), math.Float64frombits(nan | 1<<63), math.Float64frombits(0x7ff0000000000001),
		math.Float64frombits(0xfff0000000000001), math.Float64frombits(0x7fffffffffffffff), math.Float64frombits(0xffffffffffffffff),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), math.Float64frombits(0x800fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64, 1, -1}
	relu := func(x float64) float64 {
		if x > 0 {
			return x
		}
		return 0
	}
	grad := func(x float64) float64 {
		if x > 0 {
			return 1
		}
		return 0
	}
	a := FromRows([][]float64{vals})
	for _, c := range []struct {
		name string
		got  *Dense
		want func(float64) float64
	}{{"ReLU", K{}.ReLU(a), relu}, {"ReLUGrad", K{}.ReLUGrad(a), grad}} {
		for i, x := range vals {
			if g, w := math.Float64bits(c.got.Data[i]), math.Float64bits(c.want(x)); g != w {
				t.Errorf("%s(%#016x) = %#016x, want %#016x", c.name, math.Float64bits(x), g, w)
			}
		}
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := RandNormal(rng, 10, 17)
	sm := K{}.Softmax(a)
	for i := 0; i < sm.Rows; i++ {
		var s float64
		for j := 0; j < sm.Cols; j++ {
			v := sm.At(i, j)
			if v < 0 || v > 1 {
				t.Fatalf("softmax entry out of [0,1]: %v", v)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
}

func TestSoftmaxStableForLargeInputs(t *testing.T) {
	a := FromRows([][]float64{{1000, 1000, 1000}})
	sm := K{}.Softmax(a)
	for j := 0; j < 3; j++ {
		if math.Abs(sm.At(0, j)-1.0/3) > 1e-9 {
			t.Fatalf("unstable softmax: %v", sm.Data)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 2, 5, 20, 50} {
		a := RandNormal(rng, n, n)
		// Diagonal dominance guarantees invertibility.
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+float64(n))
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if diff := MaxAbsDiff(MatMul(a, inv), Identity(n)); diff > 1e-8 {
			t.Errorf("n=%d: a×a⁻¹ deviates from I by %g", n, diff)
		}
	}
}

func TestInverseSingular(t *testing.T) {
	if _, err := Inverse(FromRows([][]float64{{1, 2}, {2, 4}})); err != ErrSingular {
		t.Fatalf("singular input: err = %v", err)
	}
	if _, err := Inverse(NewDense(2, 3)); err == nil {
		t.Fatal("non-square Inverse should error")
	}
}

func TestDensityAndDiff(t *testing.T) {
	a := FromRows([][]float64{{0, 1}, {0, 2}})
	if a.Density() != 0.5 {
		t.Errorf("Density = %v", a.Density())
	}
	if !math.IsInf(MaxAbsDiff(a, NewDense(3, 3)), 1) {
		t.Error("MaxAbsDiff shape mismatch should be +Inf")
	}
}

func TestMatMulDistributesOverAdd(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rng, 9, 13)
		b := RandNormal(rng, 13, 7)
		c := RandNormal(rng, 13, 7)
		lhs := MatMul(a, K{}.Add(b, c))
		rhs := K{}.Add(MatMul(a, b), MatMul(a, c))
		return MaxAbsDiff(lhs, rhs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := RandNormal(rng, 8, 12)
		b := RandNormal(rng, 12, 6)
		return MaxAbsDiff(K{}.Transpose(MatMul(a, b)), MatMul(K{}.Transpose(b), K{}.Transpose(a))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestRandSparseDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	m := RandSparse(rng, 200, 200, 0.1)
	d := m.Density()
	if d < 0.07 || d > 0.13 {
		t.Errorf("RandSparse density = %v, want ≈0.1", d)
	}
}

// TestDensityOfEmptyMatrix: no entries, no non-zero fraction — 0, not
// the NaN of 0/0 (a zero-value Dense is the only empty one there is).
func TestDensityOfEmptyMatrix(t *testing.T) {
	if d := new(Dense).Density(); d != 0 {
		t.Fatalf("Density of an empty matrix = %v, want 0", d)
	}
}
