//go:build !noavx512

package tensor

// buildAVX512 says whether init may bind the AVX-512 bodies. `-tags
// noavx512` turns it off so that a host with AVX-512 can run every
// suite on the AVX2 bodies it would otherwise never execute again
// (`make test-avx2`); like purego it is a build-time switch only.
const buildAVX512 = true
