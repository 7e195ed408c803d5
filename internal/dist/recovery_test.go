package dist_test

import (
	"reflect"
	"testing"
	"time"

	"matopt/internal/dist"
)

// TestNodeLossCascade kills the sink vertex's node after its upstream
// chain has been freed: the scheduler must walk the lineage back to a
// usable frontier, recompute the missing ancestors and still produce
// bit-identical outputs — the "crash after ancestor freed" case single-
// hop retry cannot recover.
func TestNodeLossCascade(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)
	sink := pp.Graph.Vertices[len(pp.Graph.Vertices)-1].ID

	for _, shards := range chaosShards {
		leakChecked(t, func() {
			plan := dist.NewFaultPlan(dist.Fault{Kind: dist.FaultNodeLoss, Vertex: sink})
			rep := runFaulted(t, "node-loss", cl, shards, plan, pp, inputs, want)
			if rep.FaultsInjected != 1 {
				t.Fatalf("node loss @%d shards: %d faults injected, want 1", shards, rep.FaultsInjected)
			}
			if rep.Cascades < 1 || rep.CascadesByVertex[sink] < 1 {
				t.Fatalf("node loss @%d shards: no cascade recorded: %+v", shards, rep)
			}
			// The sink's upstream chain was freed when its consumers
			// completed, so recovery must recompute more than the sink's
			// immediate inputs.
			if rep.MaxCascadeDepth < 2 {
				t.Fatalf("node loss @%d shards: cascade depth %d, want ≥ 2 (freed ancestors recomputed)",
					shards, rep.MaxCascadeDepth)
			}
			if rep.Degraded {
				t.Fatalf("node loss @%d shards: run degraded instead of recovering", shards)
			}
		})
	}
}

// TestNodeLossEveryVertex sweeps a node loss over each vertex at each
// chaos shard count: wherever the node dies, lineage recovery must
// reconstruct the lost inputs and converge bit-identically.
func TestNodeLossEveryVertex(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)
	for _, shards := range chaosShards {
		for _, v := range pp.Graph.Vertices {
			plan := dist.NewFaultPlan(dist.Fault{Kind: dist.FaultNodeLoss, Vertex: v.ID})
			rep := runFaulted(t, "node-loss-sweep", cl, shards, plan, pp, inputs, want)
			if rep.FaultsInjected != 1 {
				t.Fatalf("node loss v%d @%d shards: %d faults injected, want 1", v.ID, shards, rep.FaultsInjected)
			}
			// Source vertices have no inputs to lose, so only vertices
			// with dependencies must cascade.
			if len(pp.Graph.Vertices) > 0 && rep.Cascades < 1 && rep.Retries < 1 {
				t.Fatalf("node loss v%d @%d shards: neither cascade nor retry recorded: %+v", v.ID, shards, rep)
			}
		}
	}
}

// TestCheckpointShortensCascade re-runs the sink node loss with
// cost-model checkpoint placement: pinned ancestors form a nearer
// frontier, so the cascade must be strictly shallower than the
// unpinned run's, and the report must meter the pins. A 1-byte budget
// must pin nothing.
func TestCheckpointShortensCascade(t *testing.T) {
	pp, inputs, cl := chaosWorkload(t)
	want := seqGolden(t, cl, pp, inputs)
	sink := pp.Graph.Vertices[len(pp.Graph.Vertices)-1].ID
	plan := func() *dist.FaultPlan {
		return dist.NewFaultPlan(dist.Fault{Kind: dist.FaultNodeLoss, Vertex: sink})
	}

	for _, shards := range chaosShards {
		bare := runFaulted(t, "node-loss-bare", cl, shards, plan(), pp, inputs, want)

		// A multiple this small makes every non-retained compute pass
		// the recompute > multiple × materialize test, so the whole
		// interior of the chain is pinned.
		rep := runFaulted(t, "node-loss-ckpt", cl, shards, plan(), pp, inputs, want,
			dist.Config{Checkpoint: true, CheckpointMultiple: 1e-9})
		if rep.CheckpointVertices < 1 {
			t.Fatalf("checkpointing @%d shards pinned nothing", shards)
		}
		if rep.CheckpointBytes < 1 {
			t.Fatalf("checkpointing @%d shards metered no pinned bytes: %+v", shards, rep)
		}
		if rep.Cascades < 1 {
			t.Fatalf("checkpointed node loss @%d shards did not cascade: %+v", shards, rep)
		}
		if rep.MaxCascadeDepth >= bare.MaxCascadeDepth {
			t.Fatalf("checkpointing @%d shards did not shorten the cascade: depth %d with pins, %d without",
				shards, rep.MaxCascadeDepth, bare.MaxCascadeDepth)
		}

		// A 1-byte budget rejects every candidate: placement must
		// degrade to no pins, not to a panic or a partial pin.
		rep = runFaulted(t, "node-loss-budget", cl, shards, plan(), pp, inputs, want,
			dist.Config{Checkpoint: true, CheckpointMultiple: 1e-9, CheckpointBudget: 1})
		if rep.CheckpointVertices != 0 {
			t.Fatalf("1-byte checkpoint budget @%d shards still pinned %d vertices", shards, rep.CheckpointVertices)
		}
	}
}

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
