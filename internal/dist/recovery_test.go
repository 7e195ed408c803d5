package dist_test

import (
	"reflect"
	"testing"

	"matopt/internal/dist"
)

// TestRandomFaultsGolden locks the RandomFaults schedule for fixed
// seeds: the derived schedules are part of the reproducibility contract
// (chaos runs cite their seed), so the case distribution in
// RandomFaults must not drift. It was changed once, on purpose, when the
// exchange-delay and slow-shard kinds were deleted: a draw now picks
// crash or drop. If this test fails, restore the generator — do not
// update the golden values.
func TestRandomFaultsGolden(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	golden := map[int64][]dist.Fault{
		1: {
			{Kind: dist.FaultDropExchange, Vertex: 1, Shard: -1},
			{Kind: dist.FaultDropExchange, Vertex: 9, Shard: -1},
			{Kind: dist.FaultCrash, Vertex: 2},
			{Kind: dist.FaultCrash, Vertex: 7},
			{Kind: dist.FaultCrash, Vertex: 6},
			{Kind: dist.FaultDropExchange, Vertex: 4, Shard: -1},
		},
		7: {
			{Kind: dist.FaultCrash, Vertex: 2},
			{Kind: dist.FaultDropExchange, Vertex: 6, Shard: -1},
			{Kind: dist.FaultCrash, Vertex: 10},
			{Kind: dist.FaultCrash, Vertex: 10},
			{Kind: dist.FaultCrash, Vertex: 4},
			{Kind: dist.FaultDropExchange, Vertex: 0, Shard: -1},
		},
	}
	for seed, want := range golden {
		if got := dist.RandomFaults(seed, len(want), ids).Faults(); !reflect.DeepEqual(got, want) {
			t.Errorf("RandomFaults(seed %d) schedule drifted:\n got  %v\n want %v", seed, got, want)
		}
	}
}
