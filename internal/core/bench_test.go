package core_test

import (
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
)

// BenchmarkFrontierInverseCold is one cold search of the graph and
// cluster of the benchmark's inverse_cold workload (cmd/bench/lib.go: the
// two-level block inverse ÷ 80 under LocalTest(2)), where the search is
// nearly all of the op. In reused each search finds the scratch the one
// before gave back, as every search after a process's first does; in
// first the scratch free list is emptied before each search, so every
// search allocates its working memory anew. `make profile-frontier`
// profiles reused.
func BenchmarkFrontierInverseCold(b *testing.B) {
	g := benchInverse(b)
	env := core.NewEnv(costmodel.LocalTest(2), format.All())
	for _, name := range []string{"reused", "first"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if name == "first" {
					core.DropIdleScratches()
				}
				if _, err := core.NewSession(nil, env).Frontier(g); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
