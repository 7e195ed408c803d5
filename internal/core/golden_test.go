package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/workload"
)

// benchInverse is the graph of the benchmark's inverse_cold workload
// (cmd/bench/lib.go, inverseGraph(80)): Figure 9's two-level block
// inverse with the paper's 10K/2K/8K split divided by 80. The benchmark
// optimizes it under costmodel.LocalTest(2) over every format.
func benchInverse(t testing.TB) *core.Graph {
	t.Helper()
	g, err := workload.Spec{Workload: "inverse", Scale: 80}.Normalized().Graph()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// planHashes pins what Frontier returns — the plan listing, the bits of
// its cost and the number of beam-cut entries — for every seed workload
// (under its beam), the benchmark's block inverse and a beam-cut FFNN
// backprop. They were recorded from the map[string]*fentry tables this
// package had before the flat class tables, so a table layout that
// changes a beam survivor, a tie-break or a rounding changes a hash.
var planHashes = map[string]string{
	"ffnn-w2":        "28449682317ba58540317f4f44c3e5970cc6198950fd15a1a98dae5d7aaa3f29",
	"ffnn-threepass": "376d2a19ff7432fa1ecd292bba4163cf1c1bdc089e95879ec6b754922baa180c",
	"motivating":     "13c2d8b463a453cfac7250f7a78db5ce200a9aa866ba9b60c9b5191187c8eef7",
	"chain-1":        "80bf8e4fd17da9e2e598c92a7c73491f734147a491635469e5d4f2f566ff8d02",
	"chain-2":        "695fb78016adb42531c3d8346fe83c42ec83bc003af571b4a26289c9555de948",
	"chain-3":        "f856bc85f0a99b42e7cf466c8a71a95b9629ad4ec4b1824c868fa87fdcbd692b",
	"block-inverse":  "5cf92455d73c27791e6aee845a2a456358d73c5d2cbf6683ed157890c69014d6",
	"scale-Tree":     "d27380562d6c0e93f28c9780a80d25a9b866c1f9ccc570990156914de8b6c4c9",
	"scale-DAG1":     "f6bdb2a273f5d0f12af9286207b4bd1ddfbd80417af0253cb9fa295a1c0d8c4e",
	"scale-DAG2":     "2f4c05551c2c08c2e37709d43bbdad595a151b567329f7c2db4cc9a6292af6d9",
	"bench-inverse":  "d499b092b603d8049b7b9abc2aa75404e3a45e5d7d62d44171d323fdfde4646b",
	"ffnn-backprop":  "a82e0922ca09c3057e031b68b2499eb353437879b1fd13d0ece754ed473af890",
}

// TestFrontierPlanIdentity is the plan-for-plan half of the determinism
// contract: serial Frontier reproduces the recorded hash of every case.
// (TestParallelFrontierMatchesSerial ties the parallel path to it.)
func TestFrontierPlanIdentity(t *testing.T) {
	type goldenCase struct {
		seedCase
		cluster costmodel.Cluster
	}
	var cases []goldenCase
	for _, sc := range seedGraphs(t) {
		cases = append(cases, goldenCase{sc, costmodel.EC2R5D(10)})
	}
	cases = append(cases, goldenCase{seedCase{"bench-inverse", benchInverse(t), 0}, costmodel.LocalTest(2)})
	g, err := workload.FFNNBackprop(workload.PaperFFNN(40000))
	if err != nil {
		t.Fatal(err)
	}
	cases = append(cases, goldenCase{seedCase{"ffnn-backprop", g, 0}, costmodel.EC2R5D(10)})
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := core.NewEnv(tc.cluster, format.All())
			env.MaxClassEntries = tc.beam
			sess := core.NewSession(nil, env, core.WithParallelism(1))
			ann, err := sess.Frontier(tc.g)
			if err != nil {
				t.Fatal(err)
			}
			h := sha256.New()
			fmt.Fprintf(h, "%s|%016x|%d", ann.Describe(), math.Float64bits(ann.Total()), sess.Stats().EntriesPruned)
			got := hex.EncodeToString(h.Sum(nil))
			want, ok := planHashes[tc.name]
			if !ok {
				t.Fatalf("no recorded hash for %q", tc.name)
			}
			if got != want {
				t.Errorf("plan changed: hash %s, recorded %s (total %v, pruned %d)\n%s",
					got, want, ann.Total(), sess.Stats().EntriesPruned, ann.Describe())
			}
		})
	}
}

// TestFrontierAllocBudget guards the search's speed without reading a
// clock: one cold serial Frontier of the benchmark's block inverse stays
// under 300,000 heap allocations. The flat class tables need about
// 15,000; tables that allocate per candidate or per cell (5.56 M before
// them) fail this deterministically.
func TestFrontierAllocBudget(t *testing.T) {
	g := benchInverse(t)
	env := core.NewEnv(costmodel.LocalTest(2), format.All())
	allocs := testing.AllocsPerRun(1, func() {
		if _, err := core.NewSession(nil, env, core.WithParallelism(1)).Frontier(g); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 300000 {
		t.Errorf("one cold Frontier of the block inverse made %.0f allocations, budget 300000", allocs)
	}
}
