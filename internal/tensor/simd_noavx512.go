//go:build noavx512

package tensor

const buildAVX512 = false
