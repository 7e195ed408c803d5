package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/trans"
)

// sharedEnvs returns the two environments the shared-DAG tests search
// under: the four-format universe, and the same universe where the only
// transformation is a gather to a single machine, so that an argument's
// format limits v's and tables have empty slots.
func sharedEnvs() (full, gather *Env) {
	universe := []format.Format{format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000)}
	full = NewEnv(costmodel.EC2R5D(4), universe)
	gather = NewEnv(costmodel.EC2R5D(4), universe)
	gather.Transforms = slices.DeleteFunc(slices.Clone(gather.Transforms), func(tr *trans.Transform) bool {
		return !tr.Identity() && tr.Target() != format.NewSingle()
	})
	return full, gather
}

// builtClasses returns every class reachable from the frontier front
// that a round built, consumed classes first.
func builtClasses(front []*fclass) []*fclass {
	var out []*fclass
	seen := map[*fclass]bool{}
	var walk func(c *fclass)
	walk = func(c *fclass) {
		if seen[c] || c.from.v.IsSource {
			return
		}
		seen[c] = true
		for _, a := range c.from.args {
			walk(a)
		}
		out = append(out, c)
	}
	for _, c := range front {
		walk(c)
	}
	return out
}

// TestStreamOrderDoesNotMatter rebuilds every class a search builds with
// each consumed class in turn as the streamed one, walked by 1, 2 and 8
// goroutines and by one goroutine per group of the streamed class — the
// most ranges a walk makes, every range a run of whole groups — and
// requires the very cells the search built: keys, cost bits, choices and
// parents. It runs on the 200 shared DAGs under both
// environments of TestClassKeysFollowBackPointers and on the benchmark's
// block inverse.
//
// A cell goes to the lowest (cost, choice index), which decides every
// slot only because one (slot, choice) names one pair of parents (see
// offer); the test counts the pairs of consumed cells that share their
// groups and their pin tuple and requires none.
func TestStreamOrderDoesNotMatter(t *testing.T) {
	rebuilt, collisions := 0, 0
	check := func(name string, g *Graph, env *Env) {
		sess := NewSession(nil, env, WithParallelism(1))
		sc := takeScratch()
		defer sc.giveBack()
		front, err := sess.expand(g, sc, nil)
		if err != nil {
			return // infeasible graphs build no class to compare
		}
		ids, err := internFormats(g, env)
		if err != nil {
			t.Fatal(err)
		}
		cache, beam := make(transCache), env.MaxClassEntries
		if beam <= 0 {
			beam = DefaultMaxClassEntries
		}
		for _, c := range builtClasses(front) {
			x := c.from
			for s := range x.args {
				r, err := sess.newRound(sc, x.v, x.args, c.members, ids, cache)
				if err != nil {
					t.Fatalf("%s, v%d: %v", name, x.v.ID, err)
				}
				collisions += parentCollisions(r)
				r.stream(s)
				for _, workers := range []int{1, 2, 8, len(r.in[s].start) - 1} {
					got, _ := r.class(sc, r.walk(context.Background(), sc, workers), c.members, beam)
					if err := sameCells(&got.cells, &c.cells); err != nil {
						t.Errorf("%s, v%d streamed from class %d by %d goroutines: %v", name, x.v.ID, s, workers, err)
						return
					}
					rebuilt++
				}
			}
		}
	}
	full, gather := sharedEnvs()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		g := sharedDAG(rng, 1+rng.Intn(2), 4, 2+rng.Intn(2))
		check(fmt.Sprintf("seed %d", seed), g, full)
		check(fmt.Sprintf("seed %d, gather only", seed), g, gather)
	}
	check("block inverse", InverseColdGraph(t), NewEnv(costmodel.LocalTest(2), format.All()))
	t.Logf("%d classes rebuilt", rebuilt)
	if collisions != 0 {
		t.Errorf("%d pairs of parents share a slot and a pin tuple", collisions)
	}
}

// parentCollisions counts the pairs of consumed cells of r that share
// their groups and their pin tuple with an earlier pair.
func parentCollisions(r *round) int {
	type slotTuple struct{ g0, g1, tuple int32 }
	seen, n := map[slotTuple]bool{}, 0
	args, others := r.x.args, 1
	if len(args) == 2 {
		others = args[1].len()
	}
	for i := range args[0].len() {
		for j := range others {
			k := slotTuple{r.in[0].group[i], 0, r.in[0].pinPart[i]}
			if len(args) == 2 {
				k.g1, k.tuple = r.in[1].group[j], k.tuple+r.in[1].pinPart[j]
			}
			if seen[k] {
				n++
			}
			seen[k] = true
		}
	}
	return n
}

// sameCells reports how a's cells differ from b's, if they do.
func sameCells(a, b *cells) error {
	if a.len() != b.len() || a.words != b.words || a.nargs != b.nargs {
		return fmt.Errorf("%d cells of %d words and %d parents, want %d of %d and %d", a.len(), a.words, a.nargs, b.len(), b.words, b.nargs)
	}
	for i := range a.len() {
		ka, kb := a.keys[i*a.words:(i+1)*a.words], b.keys[i*b.words:(i+1)*b.words]
		pa, pb := a.parent[i*a.nargs:(i+1)*a.nargs], b.parent[i*b.nargs:(i+1)*b.nargs]
		if !slices.Equal(ka, kb) || math.Float64bits(a.cost[i]) != math.Float64bits(b.cost[i]) || a.choice[i] != b.choice[i] || !slices.Equal(pa, pb) {
			return fmt.Errorf("cell %d is (%x, %v, choice %d, parents %v), want (%x, %v, %d, %v)",
				i, ka, a.cost[i], a.choice[i], pa, kb, b.cost[i], b.choice[i], pb)
		}
	}
	return nil
}

// TestBeamCut checks the in-place beam cut against a reference: over
// cells in key order, every cell below the beam-th smallest cost
// survives, then the first cells at that cost, in key order — found here
// by sorting a copy of the costs and deleting from an index list. One
// cost list holds a run of equal costs that straddles the cut; in the
// other every cost is equal.
func TestBeamCut(t *testing.T) {
	reference := func(cost []float64, beam int) []int32 {
		order := make([]int32, len(cost))
		for i := range order {
			order[i] = int32(i)
		}
		if len(cost) <= beam {
			return order
		}
		sorted := slices.Clone(cost)
		slices.Sort(sorted)
		cut := sorted[beam-1]
		atCut := beam
		for _, c := range cost {
			if c < cut {
				atCut--
			}
		}
		return slices.DeleteFunc(order, func(i int32) bool {
			if cost[i] == cut {
				atCut--
				return atCut < 0
			}
			return cost[i] > cut
		})
	}
	run := []float64{5, 1, 3, 3, 9, 3, 3, 2, 7, 3, 0} // the 3s are the 4th to 8th smallest
	flat := []float64{4, 4, 4, 4, 4, 4}               // every cell is at the cut
	for _, costs := range [][]float64{run, flat} {
		n := len(costs)
		for _, beam := range []int{1, 5, 6, n / 2, n - 1, n, n + 1} {
			c := cells{words: 1, nargs: 2}
			for i, cost := range costs {
				c.keys = append(c.keys, uint64(i))
				c.cost = append(c.cost, cost)
				c.choice = append(c.choice, int32(i))
				c.parent = append(c.parent, int32(i), int32(100+i))
			}
			sc := takeScratch()
			pruned := c.cut(sc, beam)
			sc.giveBack()
			want := reference(costs, beam)
			if pruned != n-len(want) || c.len() != len(want) {
				t.Errorf("%d costs, beam %d: %d cells kept and %d pruned, want %d kept", n, beam, c.len(), pruned, len(want))
				continue
			}
			for j, i := range want {
				if c.keys[j] != uint64(i) || c.cost[j] != costs[i] || c.choice[j] != i || c.parent[2*j] != i || c.parent[2*j+1] != 100+i {
					t.Errorf("%d costs, beam %d: survivor %d is cell %d, want cell %d", n, beam, j, c.keys[j], i)
					break
				}
			}
		}
	}
}
