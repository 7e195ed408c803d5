package tensor

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// These tests carry no build tag. Each kernel test runs once per entry
// of bindings — every set of bodies this build can execute on this host,
// not only the one init bound — with that entry bound in its place, and
// all of them must reproduce the same references.

// bindings starts with the portable bodies, and with the same again
// under the wide geometry — the tile's definition written out at 8×16 and
// 4×16, a 128-column strip — so that gemmRows' loop nest at that shape is
// driven on any host and under `-tags purego`; simd_amd64_test.go appends
// the assembler bodies the CPU can run.
var bindings = []binding{generic, {
	isa: "generic-8x16", axpy: axpyGeneric,
	gatherAxpy: gatherAxpyGeneric, gatherStrip: 128,
	gemmTile: refTile(8, 16), gemmHalfTile: refTile(4, 16), tileRows: 8, tileCols: 16,
}}

// refTile is the register tile's definition at one geometry.
func refTile(rows, cols int) tileFunc {
	return func(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int) {
		for r := 0; r < rows; r++ {
			for k := 0; k < kc; k++ {
				for j := 0; j < cols; j++ {
					d[r*ldd+j] = math.FMA(a[r*lda+k], p[k*ldp+j], d[r*ldd+j])
				}
			}
		}
	}
}

// withBinding runs f with b bound in place of what init chose.
func withBinding(b binding, f func()) {
	defer func(was binding) { bound = was }(bound)
	bound = b
	f()
}

// eachBinding runs f as one subtest per entry of bindings, bound for
// the subtest's duration.
func eachBinding(t *testing.T, f func(t *testing.T, b binding)) {
	for _, b := range bindings {
		t.Run(b.isa, func(t *testing.T) { withBinding(b, func() { f(t, b) }) })
	}
}

func TestISA(t *testing.T) {
	if got := ISA(); got != "avx512" && got != "avx2" && got != "generic" {
		t.Fatalf("ISA() = %q, want avx512, avx2 or generic", got)
	}
}

// The operands of TestMultiplyAddIsFused: (1+2⁻²⁷)·(1−2⁻²⁷) is 1−2⁻⁵⁴
// exactly, which rounds to 1, so a product rounded before its add leaves
// −1 + 1 = +0 where one fused multiply-add leaves −2⁻⁵⁴.
const (
	fusedA, fusedB, fusedAcc = 1 + 0x1p-27, 1 - 0x1p-27, -1.0
	fusedSum                 = -0x1p-54
)

// TestMultiplyAddIsFused: every body — the tile at each geometry, Axpy
// through all its vector steps and tails, GatherAxpy through all its
// strips — and K.MatMul above them, on full, half and edge tiles and a
// remainder row, round each multiply-add once (KERNELS.md §2, Rule 3).
func TestMultiplyAddIsFused(t *testing.T) { eachBinding(t, testMultiplyAddIsFused) }

func testMultiplyAddIsFused(t *testing.T, bd binding) {
	a, b, acc := fusedA, fusedB, fusedAcc
	if float64(a*b)+acc != 0 || math.FMA(a, b, acc) != fusedSum {
		t.Fatal("the operands do not tell one rounding from two")
	}
	fill := func(n int, v float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = v
		}
		return s
	}
	check := func(what string, got []float64) {
		t.Helper()
		for i, v := range got {
			if math.Float64bits(v) != math.Float64bits(fusedSum) {
				t.Fatalf("%s: element %d = %g, want one rounding's %g", what, i, v, fusedSum)
			}
		}
	}
	tiles := map[int]tileFunc{bd.tileRows: bd.gemmTile}
	if bd.gemmHalfTile != nil {
		tiles[bd.tileRows/2] = bd.gemmHalfTile
	}
	tc := bd.tileCols
	for rows, tile := range tiles {
		d := fill(rows*tc, fusedAcc)
		tile(d, tc, fill(rows, fusedA), 1, fill(tc, fusedB), tc, 1)
		check(fmt.Sprintf("%d×%d tile", rows, tc), d)
	}
	const n, width = 32 + 8 + 4 + 3, 128 + 32 + 4 + 3
	y := fill(n, fusedAcc)
	Axpy(fusedA, fill(n, fusedB), y)
	check("Axpy", y)
	y = fill(width, fusedAcc)
	GatherAxpy([]float64{fusedA}, []int{0}, fill(width, fusedB), width, y)
	check("GatherAxpy", y)

	// Row i of x is (−1, 1+2⁻²⁷) and the rows of w are 1 and 1−2⁻²⁷, so
	// every element of x×w is fma(1+2⁻²⁷, 1−2⁻²⁷, −1·1). Thirteen rows
	// take a full tile, a half or second full one and a remainder row,
	// 141 columns a packed panel and an edge tile.
	x, w := NewDense(13, 2), NewDense(2, 141)
	for i := 0; i < x.Rows; i++ {
		x.Set(i, 0, fusedAcc)
		x.Set(i, 1, fusedA)
	}
	for j := 0; j < w.Cols; j++ {
		w.Set(0, j, 1)
		w.Set(1, j, fusedB)
	}
	for _, threads := range []int{1, 3} {
		check(fmt.Sprintf("K.MatMul threads=%d", threads), K{Threads: threads}.MatMul(x, w).Data)
	}
}

// sameBits reports whether two values are the same float64 bit pattern,
// or both NaN: which NaN an operation returns is not part of the
// kernels' contract (KERNELS.md §2).
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = rng.NormFloat64()
	}
	return s
}

// TestAxpyMatchesReference: every length 0…140 at every pair of slice
// offsets 0…7 — unaligned heads, tails shorter than a vector — equals
// the three-line reference bit for bit and writes nothing outside y.
func TestAxpyMatchesReference(t *testing.T) { eachBinding(t, testAxpyMatchesReference) }

func testAxpyMatchesReference(t *testing.T, _ binding) {
	rng := rand.New(rand.NewSource(5))
	for n := 0; n <= 140; n++ {
		for xo := 0; xo < 8; xo++ {
			for yo := 0; yo < 8; yo++ {
				a := rng.NormFloat64()
				xs, ys := randSlice(rng, n+16), randSlice(rng, n+16)
				want := append([]float64(nil), ys...)
				for j := 0; j < n; j++ {
					want[yo+j] = math.FMA(a, xs[xo+j], want[yo+j])
				}
				Axpy(a, xs[xo:xo+n], ys[yo:yo+n+1]) // y may be longer than x
				for j := range ys {
					if !sameBits(ys[j], want[j]) {
						t.Fatalf("n=%d xo=%d yo=%d: y[%d] = %x, want %x", n, xo, yo, j,
							math.Float64bits(ys[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

func TestAxpyPanicsOnShortY(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Axpy with len(y) < len(x) did not panic")
		}
	}()
	Axpy(1, make([]float64, 9), make([]float64, 8))
}

// gatherAxpyRef is GatherAxpy's definition, written out.
func gatherAxpyRef(val []float64, idx []int, b []float64, ldb int, y []float64) {
	for k, v := range val {
		for j := range y {
			y[j] = math.FMA(v, b[idx[k]*ldb+j], y[j])
		}
	}
}

// TestGatherAxpyMatchesReference drives the body, bare and behind the
// checking wrapper, over widths on both sides of the 128- and 32-column
// strips and the 4-column tail, with no, one and many entries — sorted,
// unsorted and repeated — at an offset into b and y, into a non-zero y,
// and holds every element of y (and the guard elements around it) to
// the scalar loop's bits.
func TestGatherAxpyMatchesReference(t *testing.T) { eachBinding(t, testGatherAxpyMatchesReference) }

func testGatherAxpyMatchesReference(t *testing.T, bd binding) {
	rng := rand.New(rand.NewSource(7))
	bodies := map[string]func([]float64, []int, []float64, int, []float64){
		"body": bd.gatherAxpy, "checked": GatherAxpy,
	}
	const rows = 23
	for _, width := range []int{0, 1, 3, 4, 5, 31, 32, 33, 36, 63, 64, 65, 127, 128, 129, 130, 255, 256, 257, 1250} {
		for _, entries := range []int{0, 1, 2, 9, 40} {
			for off := 0; off < 3; off++ {
				ldb := width + 2*off
				b := randSlice(rng, off+rows*ldb+3)
				y := randSlice(rng, off+width+5)
				val := randSlice(rng, entries)
				idx := make([]int, entries)
				for k := range idx {
					idx[k] = rng.Intn(rows) // unsorted, with repeats once entries > rows
				}
				if entries == 2 {
					idx[1] = idx[0]
				}
				want := append([]float64(nil), y...)
				gatherAxpyRef(val, idx, b[off:], ldb, want[off:off+width])
				for name, body := range bodies {
					if width == 0 && name != "checked" {
						continue // the bodies are never called with an empty y
					}
					got := append([]float64(nil), y...)
					body(val, idx, b[off:], ldb, got[off:off+width])
					for j := range got {
						if !sameBits(got[j], want[j]) {
							t.Fatalf("%s width=%d entries=%d off=%d: y[%d] = %x, want %x", name, width, entries, off, j,
								math.Float64bits(got[j]), math.Float64bits(want[j]))
						}
					}
				}
			}
		}
	}
}

// TestGatherAxpySpecialValues: the values of TestGEMMSpecialValues
// through every strip width of the body.
func TestGatherAxpySpecialValues(t *testing.T) { eachBinding(t, testGatherAxpySpecialValues) }

func testGatherAxpySpecialValues(t *testing.T, bd binding) {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
		math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(), 1, -2.5,
	}
	rng := rand.New(rand.NewSource(11))
	draw := func(n int) []float64 {
		s := randSlice(rng, n)
		for i := range s {
			if pick := rng.Intn(2 * len(special)); pick < len(special) {
				s[i] = special[pick]
			}
		}
		return s
	}
	const rows, width = 9, 128 + 32 + 4 + 3
	for trial := 0; trial < 50; trial++ {
		b, y, val := draw(rows*width), draw(width), draw(12)
		idx := make([]int, len(val))
		for k := range idx {
			idx[k] = rng.Intn(rows)
		}
		want := append([]float64(nil), y...)
		gatherAxpyRef(val, idx, b, width, want)
		got := append([]float64(nil), y...)
		bd.gatherAxpy(val, idx, b, width, got)
		for j := range got {
			if !sameBits(got[j], want[j]) {
				t.Fatalf("trial %d: y[%d] = %x, want %x", trial, j,
					math.Float64bits(got[j]), math.Float64bits(want[j]))
			}
		}
	}
}

// TestGatherAxpyPanics: an index outside b, a y wider than a row, a row
// whose last columns fall off b's end and an idx shorter than val are
// refused in Go, before the body dereferences anything.
func TestGatherAxpyPanics(t *testing.T) {
	b := make([]float64, 4*10)
	for name, call := range map[string]func(){
		"row past the end":     func() { GatherAxpy([]float64{1}, []int{4}, b, 10, make([]float64, 10)) },
		"negative row":         func() { GatherAxpy([]float64{1}, []int{-1}, b, 10, make([]float64, 10)) },
		"y wider than a row":   func() { GatherAxpy([]float64{1}, []int{0}, b, 10, make([]float64, 11)) },
		"y wider than b":       func() { GatherAxpy([]float64{1}, []int{0}, b[:5], 10, make([]float64, 6)) },
		"last row cut short":   func() { GatherAxpy([]float64{1}, []int{3}, b[:36], 10, make([]float64, 7)) },
		"idx shorter than val": func() { GatherAxpy([]float64{1, 2}, []int{0}, b, 10, make([]float64, 10)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: GatherAxpy did not panic", name)
				}
			}()
			call()
		}()
	}
	// The same row is fine when its columns do fit.
	GatherAxpy([]float64{1}, []int{3}, b[:36], 10, make([]float64, 6))
}

// TestGemmTileMatchesReference drives the tile body, and the half-height
// one where the binding has it, over kc on both sides of the panel
// height, at every offset of the tile inside its rows, with unequal
// strides and guard elements around every row of the tile.
func TestGemmTileMatchesReference(t *testing.T) { eachBinding(t, testGemmTileMatchesReference) }

func testGemmTileMatchesReference(t *testing.T, bd binding) {
	rng := rand.New(rand.NewSource(6))
	tiles := map[int]tileFunc{bd.tileRows: bd.gemmTile}
	if bd.gemmHalfTile != nil {
		tiles[bd.tileRows/2] = bd.gemmHalfTile
	}
	cols := bd.tileCols
	for rows, tile := range tiles {
		for _, kc := range []int{0, 1, 255, 256, 257} {
			for off := 0; off < 8; off++ {
				ldd, lda, ldp := cols+off+3, kc+off+1, cols+2*off
				d := randSlice(rng, off+(rows-1)*ldd+cols+5)
				a := randSlice(rng, off+(rows-1)*lda+kc+5)
				p := randSlice(rng, off+kc*ldp+cols+5)
				want := append([]float64(nil), d...)
				refTile(rows, cols)(want[off:], ldd, a[off:], lda, p[off:], ldp, kc)
				got := append([]float64(nil), d...)
				tile(got[off:], ldd, a[off:], lda, p[off:], ldp, kc)
				for j := range got {
					if !sameBits(got[j], want[j]) {
						t.Fatalf("%d×%d kc=%d off=%d: d[%d] = %x, want %x", rows, cols, kc, off, j,
							math.Float64bits(got[j]), math.Float64bits(want[j]))
					}
				}
			}
		}
	}
}

// TestGEMMEdgeSweep straddles every edge the register tiles introduce —
// the 4- and 8-row groups, the 8- and 16-column tiles, the 128-column
// panel, the 256-row panel — and holds each product to the naive triple
// loop, bit for bit, under every binding at every thread count. The
// padded edge tile computes a whole tile's columns where dst has fewer:
// a row range in the middle of a dst filled with a sentinel must leave
// every element outside the range — the next row's first elements among
// them — exactly as it was. (The row counts past nine meet the column
// counts up to 33 only: row groups and panels do not interact, and the
// naive reference is most of this test's time.)
func TestGEMMEdgeSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const sentinel = -7.25
	for _, rows := range []int{1, 3, 4, 5, 7, 8, 9, 11, 12, 13, 15, 16, 17} {
		for _, cols := range []int{1, 7, 8, 9, 15, 16, 17, 23, 24, 25, 31, 32, 33, 127, 128, 129, 136, 144} {
			if rows > 9 && cols > 33 {
				continue
			}
			for _, kd := range []int{1, 255, 256, 257, 513} {
				a, b := RandNormal(rng, rows, kd), RandNormal(rng, kd, cols)
				want := naiveMatMul(a, b)
				lo, hi := rows/3, rows-rows/4
				for _, bd := range bindings {
					withBinding(bd, func() {
						for _, threads := range []int{1, 2, 3, 8} {
							if got := (K{Threads: threads}).MatMul(a, b); !BitEqual(got, want) {
								t.Fatalf("%s %dx%dx%d threads=%d: differs from naive (max |Δ| %g)",
									bd.isa, rows, kd, cols, threads, MaxAbsDiff(got, want))
							}
						}
						// Accumulating onto zeros, and clearing rows that
						// hold garbage first, each touch rows [lo, hi) only.
						for _, zero := range []bool{false, true} {
							got := NewDense(rows, cols)
							for i := range got.Data {
								if zero || i < lo*cols || i >= hi*cols {
									got.Data[i] = sentinel
								}
							}
							gemmRows(got, a, b, lo, hi, zero)
							for i, v := range got.Data {
								inside := i >= lo*cols && i < hi*cols
								if inside && !sameBits(v, want.Data[i]) || !inside && v != sentinel {
									t.Fatalf("%s %dx%dx%d rows [%d,%d) zero=%v: element %d = %v (inside=%v, naive %v)",
										bd.isa, rows, kd, cols, lo, hi, zero, i, v, inside, want.Data[i])
								}
							}
						}
					})
				}
			}
		}
	}
}

// TestGEMMSpecialValues: signed zeros, infinities, subnormals and
// products that overflow take the tile, the edge columns and the
// remainder row to the bits of the naive loop; where the naive loop
// produces a NaN (∞·0, ∞−∞, a NaN input) so does the kernel.
func TestGEMMSpecialValues(t *testing.T) { eachBinding(t, testGEMMSpecialValues) }

func testGEMMSpecialValues(t *testing.T, _ binding) {
	gentle := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040, 1, -2.5,
	}
	for _, withNaN := range []bool{false, true} {
		rng := rand.New(rand.NewSource(9))
		draw := func(r, c int) *Dense {
			m := RandNormal(rng, r, c)
			for i := range m.Data {
				if pick := rng.Intn(3 * len(gentle)); pick < len(gentle) {
					m.Data[i] = gentle[pick]
				}
			}
			return m
		}
		// 13×300 × 300×37: an 8-row and a 4-row group (or three of four)
		// and a remainder row, two 16-column tiles (or four of eight) and
		// five edge columns, two k panels.
		a, b := draw(13, 300), draw(300, 37)
		a.Set(1, 10, math.MaxFloat64) // overflows in one product, or not at all
		a.Set(1, 200, math.MaxFloat64)
		a.Set(2, 7, math.Inf(1))
		a.Set(5, 3, math.Inf(1)) // +Inf and −Inf in one row: Inf−Inf
		a.Set(5, 260, math.Inf(-1))
		a.Set(12, 299, -math.MaxFloat64)
		b.Set(50, 3, math.MaxFloat64)
		b.Set(100, 20, math.Inf(1)) // times a's zeros: ∞·0
		if withNaN {
			a.Set(4, 17, math.NaN())
			b.Set(290, 9, math.NaN())
		}
		want := naiveMatMul(a, b)
		var nans, infs int
		for _, v := range want.Data {
			if math.IsNaN(v) {
				nans++
			} else if math.IsInf(v, 0) {
				infs++
			}
		}
		if nans == 0 || infs == 0 || nans+infs > len(want.Data)/2 {
			t.Fatalf("withNaN=%v: degenerate reference (%d NaN, %d Inf of %d)", withNaN, nans, infs, len(want.Data))
		}
		for _, threads := range []int{1, 2} {
			got := K{Threads: threads}.MatMul(a, b)
			for i := range got.Data {
				if !sameBits(got.Data[i], want.Data[i]) {
					t.Fatalf("withNaN=%v threads=%d: element %d = %x, want %x", withNaN, threads, i,
						math.Float64bits(got.Data[i]), math.Float64bits(want.Data[i]))
				}
			}
		}
	}
	// Overflow by accumulation, not by one product: MaxFloat64 + MaxFloat64.
	a := FromRows([][]float64{{1, 1}, {1, -1}, {-1, -1}, {1, 1}})
	b := NewDense(2, 8)
	for i := range b.Data {
		b.Data[i] = math.MaxFloat64
	}
	if got, want := MatMul(a, b), naiveMatMul(a, b); !BitEqual(got, want) || !math.IsInf(got.Data[0], 1) ||
		got.Data[8] != 0 || !math.IsInf(got.Data[16], -1) {
		t.Fatalf("overflow to Inf: got %v, want %v", got.Data, want.Data)
	}
}

// TestMatMulAddIntoNonZeroDst: the tile loads dst before it accumulates
// and the padded edge tile is seeded from dst, so dst += a×b starts each
// element's ascending-k sum from the value already there — in a packed
// panel's edge columns (141 = 128 + 8 + 5, 157 = 128 + 16 + 13), in an
// in-place panel's (30 = 24 + 6 = 16 + 14) and where the edge is all
// there is (5).
func TestMatMulAddIntoNonZeroDst(t *testing.T) { eachBinding(t, testMatMulAddIntoNonZeroDst) }

func testMatMulAddIntoNonZeroDst(t *testing.T, _ binding) {
	rng := rand.New(rand.NewSource(10))
	for _, cols := range []int{141, 157, 30, 5} {
		a, b := RandNormal(rng, 13, 260), RandNormal(rng, 260, cols)
		base := RandNormal(rng, 13, cols)
		want := base.Clone()
		for i := 0; i < a.Rows; i++ {
			for j := 0; j < b.Cols; j++ {
				s := base.At(i, j)
				for k := 0; k < a.Cols; k++ {
					s = math.FMA(a.At(i, k), b.At(k, j), s)
				}
				want.Set(i, j, s)
			}
		}
		for _, threads := range []int{1, 3} {
			got := base.Clone()
			K{Threads: threads}.gemm(got, a, b, false)
			if !BitEqual(got, want) {
				t.Fatalf("cols=%d threads=%d: dst += a×b into non-zero dst differs from naive (max |Δ| %g)",
					cols, threads, MaxAbsDiff(got, want))
			}
		}
	}
}

// TestInverseDigest pins Gauss–Jordan's bits to a digest recorded when
// Axpy, its row update, became one fused multiply-add per element; the
// same under every binding.
func TestInverseDigest(t *testing.T) {
	const want = "be471ee97fab7345b7ddbfeba6a864af27cc13c45a6ece550aba7268403888fd"
	rng := rand.New(rand.NewSource(41))
	h := sha256.New()
	var buf [8]byte
	for _, n := range []int{1, 5, 37, 64} {
		a := RandNormal(rng, n, n)
		for i := 0; i < n; i++ {
			a.Data[i*n+i] += float64(n)
		}
		inv, err := Inverse(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range inv.Data {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("Inverse digest %s, want %s", got, want)
	}
}
