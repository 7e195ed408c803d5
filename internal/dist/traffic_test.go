package dist_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"matopt/internal/dist"
)

// traffic is what one dist run of a golden case moved and held.
type traffic struct{ net, msgs, peak int64 }

// pinnedTraffic is each golden case's traffic over chan, recorded once
// from this code. A change that moves more or fewer bytes between shards
// fails here until the table is re-recorded on purpose (the failure
// prints the table it measured).
var pinnedTraffic = map[string]traffic{
	"matmul-chain@2":       {1524000, 6, 3280000},
	"matmul-chain@7":       {1524000, 6, 3280000},
	"ffnn-w2update@2":      {2896, 4, 614400},
	"ffnn-w2update@7":      {306576, 11, 614400},
	"ffnn-backprop@2":      {5472, 7, 880672},
	"ffnn-backprop@7":      {535712, 19, 880672},
	"ffnn-3pass@2":         {8048, 10, 899872},
	"ffnn-3pass@7":         {585648, 25, 899872},
	"block-inverse@2":      {68096, 16, 89600},
	"block-inverse@7":      {174080, 37, 89600},
	"sparse-csr-forward@2": {201236, 2, 2121236},
	"sparse-csr-forward@7": {530472, 5, 2121236},
	"sparse-coo-mm@2":      {272160, 168, 269040},
	"sparse-coo-mm@7":      {1284480, 282, 269040},
}

// TestTrafficPinned runs every golden case at 2 and 7 shards over the
// in-process transport, one step at a time, and requires its Report's
// NetBytes, Messages and PeakBytes to equal the recorded table.
func TestTrafficPinned(t *testing.T) {
	var table strings.Builder
	mismatch := false
	for _, c := range goldenCases(t) {
		for _, shards := range []int{2, 7} {
			rt, err := dist.New(c.env.Cluster, dist.Config{Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			dist.OneStepAtATime(rt)
			_, rep, err := rt.RunPlan(context.Background(), c.pp, c.inputs)
			if err != nil {
				t.Fatalf("%s @%d shards: %v", c.name, shards, err)
			}
			key := fmt.Sprintf("%s@%d", c.name, shards)
			got := traffic{rep.NetBytes, rep.Messages, rep.PeakBytes}
			fmt.Fprintf(&table, "\t%q: {%d, %d, %d},\n", key, got.net, got.msgs, got.peak)
			if want, ok := pinnedTraffic[key]; !ok || got != want {
				mismatch = true
				t.Errorf("%s: moved %d B in %d messages, peak %d B; recorded %+v", key, got.net, got.msgs, got.peak, want)
			}
		}
	}
	if mismatch {
		t.Logf("measured table:\n%s", table.String())
	}
}
