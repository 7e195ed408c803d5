//go:build amd64 && !purego

package tensor

import (
	"os"
	"regexp"
	"testing"
)

// The assembler bodies join the table whenever the CPU can run them,
// bound or not: on an AVX-512 host the AVX2 bodies would otherwise
// never execute again, and under `-tags noavx512` the ZMM ones.
func init() {
	if cpuHasAVX2() {
		bindings = append(bindings, avx2)
	}
	if cpuHasAVX512() {
		bindings = append(bindings, avx512)
	}
}

// TestISAMatchesCPUFlags: a wrong CPUID or XCR0 mask degrades to a
// slower body and no bit test notices, so detection is held to the
// kernel's own reading of the same CPU.
func TestISAMatchesCPUFlags(t *testing.T) {
	cpuinfo, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo to compare with: %v", err)
	}
	flag := func(name string) bool {
		return regexp.MustCompile(`(?m)^flags\s*:.*\s` + name + `(\s|$)`).Match(cpuinfo)
	}
	// Every assembler body is built on VFMADD231PD, so either binding
	// needs FMA as well.
	want := "generic"
	switch {
	case !flag("fma"):
	case buildAVX512 && flag("avx512f"):
		want = "avx512"
	case flag("avx2"):
		want = "avx2"
	}
	if got := ISA(); got != want {
		t.Fatalf("ISA() = %q, but /proc/cpuinfo (fma %v, avx2 %v, avx512f %v; AVX-512 built in: %v) wants %q",
			got, flag("fma"), flag("avx2"), flag("avx512f"), buildAVX512, want)
	}
}
