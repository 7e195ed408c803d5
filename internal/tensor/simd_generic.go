package tensor

import "math"

// The three multiply-accumulate primitives every dense and CSR×dense
// product bottoms out in, and their portable bodies. simd_amd64.go
// replaces the bodies with AVX-512 or AVX2 ones at init when the CPU
// and the OS allow it; everywhere else (other architectures, `-tags
// purego`, an amd64 without AVX2 and FMA) these run. Every body
// performs, per output element, the identical operation sequence — one
// fused multiply-add, rounded once, per product, in ascending k — so
// which one is selected never shows in the bits (KERNELS.md §2).

// tileFunc is a register-tile body: d[r][0:cols] += Σ_k a[r][k]·p[k][0:cols]
// for r < rows and k ascending over kc panel rows, rows × cols being the
// geometry of the binding it belongs to. d, a and p start at the tile's
// first element; ldd, lda and ldp are the row strides of dst, a and the
// panel.
type tileFunc func(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)

// A binding is one set of bodies for the three primitives together with
// the geometry those bodies fix: the loop nests above them (gemmRows,
// sparse.MulDenseK) read their steps from it and hold no tile constant
// of their own.
type binding struct {
	isa        string
	axpy       func(a float64, x, y []float64)
	gatherAxpy func(val []float64, idx []int, b []float64, ldb int, y []float64)
	// gatherStrip is how many columns of y gatherAxpy holds in registers
	// across a run of entries; a caller blocking columns rounds to it.
	gatherStrip int
	// gemmTile updates tileRows × tileCols elements of dst. gemmHalfTile,
	// when the binding has one, updates tileRows/2 × tileCols: it takes
	// the rows a last full tile would overshoot.
	gemmTile, gemmHalfTile tileFunc
	tileRows, tileCols     int
}

var generic = binding{
	isa: "generic", axpy: axpyGeneric,
	gatherAxpy: gatherAxpyGeneric, gatherStrip: 32,
	gemmTile: gemmTile4x8Generic, tileRows: 4, tileCols: 8,
}

// bound is the binding in use, chosen once at start-up.
var bound = generic

// ISA names the instruction set the multiply-accumulate primitives were
// bound to at start-up: "avx512", "avx2" or "generic".
func ISA() string { return bound.isa }

// GatherStrip reports how many columns of y the bound GatherAxpy body
// holds in registers at once (32 or 128).
func GatherStrip() int { return bound.gatherStrip }

// Axpy computes y[j] = a·x[j] + y[j] for every j < len(x), each as one
// fused multiply-add rounded once (math.FMA), and lanes are independent,
// so the result does not depend on the selected body. It panics if y is
// shorter than x.
func Axpy(a float64, x, y []float64) {
	bound.axpy(a, x, y[:len(x)])
}

// axpyGeneric is the portable Axpy body. math.FMA is one rounding on
// every architecture: the compiler emits the fused instruction where the
// target has it (arm64, amd64 at GOAMD64=v3; at v1 behind a run-time
// check of the CPU's FMA flag) and an exact software routine elsewhere.
func axpyGeneric(a float64, x, y []float64) {
	for j, xv := range x {
		y[j] = math.FMA(a, xv, y[j])
	}
}

// GatherAxpy computes y[j] += Σ_k val[k]·b[idx[k]·ldb+j] for every
// j < len(y), k ascending: the rows idx[k] of a row-major b with row
// stride ldb, scaled by val[k], accumulated into y. Each product is
// fused into its add and every y[j] receives its products in the order
// of val, so the result is that of one Axpy per entry; idx
// may repeat and need not be sorted. It panics if idx is shorter than
// val, if y is wider than a row of b, or if a gathered row does not lie
// inside b.
func GatherAxpy(val []float64, idx []int, b []float64, ldb int, y []float64) {
	idx = idx[:len(val)]
	if len(y) == 0 || len(val) == 0 {
		return
	}
	if len(y) > ldb || len(y) > len(b) {
		panic("tensor: GatherAxpy: y is wider than a row of b")
	}
	last := uint((len(b) - len(y)) / ldb) // the last row whose len(y) columns lie inside b
	for _, r := range idx {
		if uint(r) > last {
			panic("tensor: GatherAxpy: row index outside b")
		}
	}
	bound.gatherAxpy(val, idx, b, ldb, y)
}

// gatherAxpyGeneric is the portable GatherAxpy body: one fused
// multiply-add sweep of y per entry.
func gatherAxpyGeneric(val []float64, idx []int, b []float64, ldb int, y []float64) {
	for k, v := range val {
		axpyGeneric(v, b[idx[k]*ldb:][:len(y)], y)
	}
}

// gemmTile4x8Generic is the portable register-tile body: d[r][0:8] +=
// Σ_k a[r][k]·p[k][0:8] for r < 4 and k ascending over kc panel rows.
func gemmTile4x8Generic(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int) {
	d0, d1, d2, d3 := d[:8], d[ldd:ldd+8], d[2*ldd:2*ldd+8], d[3*ldd:3*ldd+8]
	for k := 0; k < kc; k++ {
		a0, a1, a2, a3 := a[k], a[lda+k], a[2*lda+k], a[3*lda+k]
		for j, pv := range p[k*ldp : k*ldp+8] {
			d0[j] = math.FMA(a0, pv, d0[j])
			d1[j] = math.FMA(a1, pv, d1[j])
			d2[j] = math.FMA(a2, pv, d2[j])
			d3[j] = math.FMA(a3, pv, d3[j])
		}
	}
}
