//go:build amd64 && !purego

package tensor

// init binds the multiply-accumulate primitives to the widest assembler
// bodies the CPU and the OS allow (and the build includes: `-tags
// noavx512` stops at AVX2). There is nothing to configure: the bodies
// produce the same bits as the portable ones, only sooner.
func init() {
	switch {
	case buildAVX512 && cpuHasAVX512():
		bound = avx512
	case cpuHasAVX2():
		bound = avx2
	}
}

var avx2 = binding{
	isa: "avx2", axpy: axpyAVX2,
	gatherAxpy: gatherAxpyAVX2, gatherStrip: 32,
	gemmTile: gemmTile4x8AVX2, tileRows: 4, tileCols: 8,
}

var avx512 = binding{
	isa: "avx512", axpy: axpyAVX512,
	gatherAxpy: gatherAxpyAVX512, gatherStrip: 128,
	gemmTile: gemmTile8x16AVX512, gemmHalfTile: gemmTile4x16AVX512, tileRows: 8, tileCols: 16,
}

// cpuHasAVX2 reports whether AVX2 and FMA instructions may be executed:
// CPUID leaf 1 FMA, OSXSAVE and AVX, XCR0 SSE and AVX state saved by the
// OS, CPUID leaf 7 AVX2. Every assembler body is built on VFMADD231PD,
// so a CPU with AVX2 but without FMA binds the portable bodies.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const fmaOSXSAVEAVX = 1<<12 | 1<<27 | 1<<28
	if _, _, c, _ := cpuid(1, 0); c&fmaOSXSAVEAVX != fmaOSXSAVEAVX {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return xgetbv()&0x06 == 0x06 && b&(1<<5) != 0
}

// cpuHasAVX512 reports whether AVX-512F instructions may be executed:
// the AVX2 test, XCR0 opmask and both halves of the ZMM state (bits 5–7)
// saved by the OS as well, CPUID leaf 7 AVX512F.
func cpuHasAVX512() bool {
	if !cpuHasAVX2() {
		return false
	}
	_, b, _, _ := cpuid(7, 0)
	return xgetbv()&0xe6 == 0xe6 && b&(1<<16) != 0
}

// cpuid executes CPUID with EAX = leaf and ECX = sub.
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

// xgetbv returns the low half of XCR0. Only a CPU whose CPUID reports
// OSXSAVE may execute it.
func xgetbv() uint32

// axpyAVX2 is Axpy's YMM body: VFMADD231PD four lanes at a time,
// VFMADD231SD for the tail. len(y) must be at least len(x).
//
//go:noescape
func axpyAVX2(a float64, x, y []float64)

// axpyAVX512 is axpyAVX2 with eight lanes at a time where at least
// eight are left.
//
//go:noescape
func axpyAVX512(a float64, x, y []float64)

// gatherAxpyAVX2 is GatherAxpy's YMM body: a 32-column strip of y is
// held in eight YMM accumulators across all of val's entries, loaded and
// stored once; what is left of y goes four columns, then one, at a time.
// The caller has checked that every row idx[k] holds len(y) columns
// inside b.
//
//go:noescape
func gatherAxpyAVX2(val []float64, idx []int, b []float64, ldb int, y []float64)

// gatherAxpyAVX512 is gatherAxpyAVX2 behind a 128-column strip held in
// sixteen ZMM accumulators; fewer than 128 columns go through the YMM
// body's strips.
//
//go:noescape
func gatherAxpyAVX512(val []float64, idx []int, b []float64, ldb int, y []float64)

// gemmTile4x8AVX2 is the 4×8 tile with the block of dst held in eight
// YMM accumulators across the whole k sweep and stored once.
//
//go:noescape
func gemmTile4x8AVX2(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)

// gemmTile8x16AVX512 is the 8×16 tile with the block of dst held in
// sixteen ZMM accumulators across the whole k sweep and stored once.
//
//go:noescape
func gemmTile8x16AVX512(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)

// gemmTile4x16AVX512 is the upper half of gemmTile8x16AVX512: four rows,
// eight accumulators.
//
//go:noescape
func gemmTile4x16AVX512(d []float64, ldd int, a []float64, lda int, p []float64, ldp, kc int)
