package dist_test

import (
	"reflect"
	"testing"
	"time"

	"matopt/internal/dist"
)

// TestSpeculativeStragglerWin stalls one exchange of a late vertex far
// past the run's p99 vertex latency: the runtime must launch a
// speculative duplicate on rotated shards, take its result, and stay
// bit-identical to the sequential engine.
func TestSpeculativeStragglerWin(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)

	for _, shards := range chaosShards {
		leakChecked(t, func() {
			base := runFaulted(t, "spec-profile", cl, shards, nil, pp, inputs, want)
			if len(base.Exchanges) == 0 {
				t.Fatalf("@%d shards: workload has no exchanges to stall", shards)
			}
			// Stall the latest exchanging vertex: everything upstream has
			// completed by then, so the latency histogram the deadline is
			// derived from is well seeded.
			x := base.Exchanges[0]
			for _, e := range base.Exchanges {
				if e.Vertex > x.Vertex {
					x = e
				}
			}
			plan := dist.NewFaultPlan(dist.Fault{
				Kind: dist.FaultDelayExchange, Vertex: x.Vertex, Label: x.Label, Shard: -1,
				Delay: 750 * time.Millisecond,
			})
			// The floor sits far above any healthy vertex (even under the
			// race detector) and far below the stall: only the straggling
			// vertex is ever raced, its primary reaches the exchange — and
			// latches the once-only delay — long before the duplicate
			// launches, and the duplicate then wins by hundreds of
			// milliseconds. A hair-trigger floor would instead speculate
			// every vertex: an upstream win's rotated placement can make
			// the targeted exchange unnecessary, and the straggler's own
			// duplicate can reach the exchange first and absorb the delay
			// itself.
			rep := runFaulted(t, "spec-straggler", cl, shards, plan, pp, inputs, want,
				dist.Config{Speculate: true, Speculation: dist.Speculation{MinObservations: 1, Multiplier: 1, Floor: 250 * time.Millisecond}})
			if rep.FaultsInjected != 1 {
				t.Fatalf("straggler @%d shards: %d faults injected, want 1", shards, rep.FaultsInjected)
			}
			if rep.SpeculativeLaunches < 1 {
				t.Fatalf("straggler @%d shards: no speculative duplicate launched: %+v", shards, rep)
			}
			if rep.SpeculativeWins < 1 {
				t.Fatalf("straggler @%d shards: the duplicate never won against a %v stall: %+v",
					shards, 750*time.Millisecond, rep)
			}
		})
	}
}

// TestSpeculationOffByDefault: with Config.Speculate unset a
// straggling exchange merely slows the run — no duplicates launch.
func TestSpeculationOffByDefault(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)
	plan := dist.NewFaultPlan(dist.Fault{
		Kind: dist.FaultDelayExchange, Vertex: -1, Shard: -1, Delay: 5 * time.Millisecond,
	})
	rep := runFaulted(t, "no-spec", cl, 2, plan, pp, inputs, want)
	if rep.SpeculativeLaunches != 0 || rep.SpeculativeWins != 0 {
		t.Fatalf("speculation ran without being enabled: %+v", rep)
	}
}

// TestRandomFaultsGolden locks the RandomFaults schedule for fixed
// seeds: the derived schedules are part of the reproducibility contract
// (chaos runs cite their seed), so the case distribution in
// RandomFaults must never change. If this test fails, restore the
// generator — do not update the golden values.
func TestRandomFaultsGolden(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	golden := map[int64][]dist.Fault{
		1: {
			{Kind: dist.FaultSlowShard, Shard: 3, Delay: 50 * time.Microsecond},
			{Kind: dist.FaultDropExchange, Vertex: 3, Shard: -1},
			{Kind: dist.FaultDropExchange, Vertex: 4, Shard: -1},
			{Kind: dist.FaultCrash, Vertex: 6},
			{Kind: dist.FaultDelayExchange, Vertex: 6, Shard: -1, Delay: 2 * time.Millisecond},
			{Kind: dist.FaultDropExchange, Vertex: 10, Shard: -1},
		},
		7: {
			{Kind: dist.FaultDelayExchange, Vertex: 2, Shard: -1, Delay: time.Millisecond},
			{Kind: dist.FaultCrash, Vertex: 1},
			{Kind: dist.FaultCrash, Vertex: 9},
			{Kind: dist.FaultCrash, Vertex: 10},
			{Kind: dist.FaultCrash, Vertex: 2},
			{Kind: dist.FaultDelayExchange, Vertex: 8, Shard: -1, Delay: 3 * time.Millisecond},
		},
	}
	for seed, want := range golden {
		p := dist.RandomFaults(seed, len(want), ids, 4)
		if got := p.Faults(); !reflect.DeepEqual(got, want) {
			t.Errorf("RandomFaults(seed %d) schedule drifted:\n got  %v\n want %v", seed, got, want)
		}
		if p.Seed() != seed {
			t.Errorf("RandomFaults(seed %d).Seed() = %d", seed, p.Seed())
		}
	}
	if dist.NewFaultPlan().Seed() != 0 {
		t.Error("explicit plans must report seed 0")
	}
	if (*dist.FaultPlan)(nil).Seed() != 0 {
		t.Error("nil plan must report seed 0")
	}
}
