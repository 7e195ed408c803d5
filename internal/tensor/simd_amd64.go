//go:build amd64 && !purego

package tensor

// init binds the multiply-accumulate primitives to their AVX2 bodies
// when CPUID reports AVX2 and XGETBV reports that the OS saves YMM
// state. There is nothing to configure: the bodies produce the same
// bits as the portable ones, only sooner.
func init() {
	if cpuHasAVX2() {
		isa, axpy, gatherAxpy, gemmTile4x8 = "avx2", axpyAVX2, gatherAxpyAVX2, gemmTile4x8AVX2
	}
}

// cpuHasAVX2 reports whether AVX2 instructions may be executed: CPUID
// leaf 1 OSXSAVE and AVX, XCR0 SSE and AVX state enabled, CPUID leaf 7
// AVX2.
func cpuHasAVX2() bool

// axpyAVX2 is Axpy's vector body: VMULPD then VADDPD, four lanes at a
// time, VMULSD/VADDSD for the tail. len(y) must be at least len(x).
//
//go:noescape
func axpyAVX2(a float64, x, y []float64)

// gatherAxpyAVX2 is GatherAxpy's vector body: a 32-column strip of y is
// held in eight YMM accumulators across all of val's entries, loaded and
// stored once; what is left of y goes four columns, then one, at a time.
// The caller has checked that every row idx[k] holds len(y) columns
// inside b.
//
//go:noescape
func gatherAxpyAVX2(val []float64, idx []int, b []float64, ldb int, y []float64)

// gemmTile4x8AVX2 is gemmTile4x8Generic with the 4×8 block of dst held
// in eight YMM accumulators across the whole k sweep and stored once.
//
//go:noescape
func gemmTile4x8AVX2(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)
