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
// each consumed class in turn as the streamed one and requires the very
// cells the search built: keys, cost bits, choices, parents and entries.
// It runs on the 200 shared DAGs under both environments of
// TestClassKeysFollowBackPointers and on the benchmark's block inverse.
//
// A cell goes to the lowest (cost, choice index), which decides every
// slot only because one (slot, choice) names one pair of parents (see
// offer); the test counts the pairs of consumed cells that share their
// groups and their pin tuple and requires none.
func TestStreamOrderDoesNotMatter(t *testing.T) {
	rebuilt, collisions := 0, 0
	check := func(name string, g *Graph, env *Env) {
		sess := NewSession(nil, env)
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
				got, _ := r.class(sc, r.walk(context.Background(), sc), c.members, beam)
				if err := sameCells(got, c); err != nil {
					t.Errorf("%s, v%d streamed from class %d: %v", name, x.v.ID, s, err)
					return
				}
				rebuilt++
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
func sameCells(a, b *fclass) error {
	if a.len() != b.len() || a.words != b.words || a.nargs != b.nargs {
		return fmt.Errorf("%d cells of %d words and %d parents, want %d of %d and %d", a.len(), a.words, a.nargs, b.len(), b.words, b.nargs)
	}
	for i := range a.len() {
		ka, kb := cellKey(a, i), cellKey(b, i)
		pa, pb := a.parent[i*a.nargs:(i+1)*a.nargs], b.parent[i*b.nargs:(i+1)*b.nargs]
		ga, gb := a.entry[i*(a.nargs+1):(i+1)*(a.nargs+1)], b.entry[i*(b.nargs+1):(i+1)*(b.nargs+1)]
		if !slices.Equal(ka, kb) || math.Float64bits(a.cost[i]) != math.Float64bits(b.cost[i]) || a.choice[i] != b.choice[i] ||
			!slices.Equal(pa, pb) || !slices.Equal(ga, gb) {
			return fmt.Errorf("cell %d is (%x, %v, choice %d, parents %v, entries %v), want (%x, %v, %d, %v, %v)",
				i, ka, a.cost[i], a.choice[i], pa, ga, kb, b.cost[i], b.choice[i], pb, gb)
		}
	}
	return nil
}

// cellKey returns the key of cell i of c: its parts' keys ORed.
func cellKey(c *fclass, i int) []uint64 {
	key := make([]uint64, c.words)
	c.key(key, c.entry[i*(c.nargs+1):(i+1)*(c.nargs+1)])
	return key
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
			c := cells{nargs: 2}
			for i, cost := range costs {
				c.cost = append(c.cost, cost)
				c.choice = append(c.choice, int32(i))
				c.parent = append(c.parent, int32(i), int32(100+i))
				c.entry = append(c.entry, int32(i), int32(200+i), int32(300+i))
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
				if c.cost[j] != costs[i] || c.choice[j] != i || c.parent[2*j] != i || c.parent[2*j+1] != 100+i ||
					c.entry[3*j] != i || c.entry[3*j+1] != 200+i || c.entry[3*j+2] != 300+i {
					t.Errorf("%d costs, beam %d: survivor %d is cell %d, want cell %d", n, beam, j, c.choice[j], i)
					break
				}
			}
		}
	}
}

// TestLayoutMatchesKeyGrouping is the part-based layout against the
// key-based grouping it replaced, kept here as the reference
// (keyGrouping): for every class a round consumes in searches of the
// graphs TestFrontierPlanIdentity records, of the 200 shared DAGs of
// TestClassKeysFollowBackPointers under both environments and of the
// benchmark's block inverse, the reference is run on the class's cell
// keys ORed up from its parts, and the cells' groups and pin shares, the
// visit and the group keys must be the same.
func TestLayoutMatchesKeyGrouping(t *testing.T) {
	var cover struct{ classes, runs, hashed int }
	check := func(name string, g *Graph, env *Env) {
		sess := NewSession(nil, env)
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
		cache := make(transCache)
		for _, c := range builtClasses(front) {
			x := c.from
			r, err := sess.newRound(sc, x.v, x.args, c.members, ids, cache)
			if err != nil {
				t.Fatalf("%s, v%d: %v", name, x.v.ID, err)
			}
			for k, a := range x.args {
				var mv moves
				mv.read(a, c.members, x.v, r.weight)
				want := keyGrouping(a, &mv, r.words)
				got := r.in[k]
				if !slices.Equal(got.group, want.group) || !slices.Equal(got.pinPart, want.pinPart) || !slices.Equal(got.order, want.order) ||
					!slices.Equal(got.start, want.start) || !slices.Equal(got.gkeys, want.gkeys) {
					t.Errorf("%s: v%d reads class %d (built at v%d) as groups %v, pin shares %v, visit %v from %v, group keys %x; the key grouping gives %v, %v, %v from %v, %x",
						name, x.v.ID, k, a.from.v.ID, got.group, got.pinPart, got.order, got.start, got.gkeys, want.group, want.pinPart, want.order, want.start, want.gkeys)
					return
				}
				cover.classes++
				if &got.order[0] == &sc.iota[0] {
					cover.runs++
				} else {
					cover.hashed++
				}
			}
		}
	}
	for _, gg := range GoldenGraphs(t) {
		check(gg.Name, gg.G, gg.Env)
	}
	full, gather := sharedEnvs()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		g := sharedDAG(rng, 1+rng.Intn(2), 4, 2+rng.Intn(2))
		check(fmt.Sprintf("seed %d", seed), g, full)
		check(fmt.Sprintf("seed %d, gather only", seed), g, gather)
	}
	check("block inverse", InverseColdGraph(t), NewEnv(costmodel.LocalTest(2), format.All()))
	t.Logf("%d consumed classes compared: %d grouped in runs, %d hashed", cover.classes, cover.runs, cover.hashed)
	if cover.runs == 0 || cover.hashed == 0 {
		t.Error("a path of the layout went untested")
	}
}

// keyGrouping numbers the cells of class a, whose keys ascend, by their
// retained formats the way rounds did when every cell kept its key: one
// scan compares consecutive keys under the mask of retained bytes, a run
// of equal ones is a group and its first key, projected, the group's key;
// when they fall, a hash pass over the projected keys numbers the groups
// in first-seen order, a sort renumbers them in key order and a stable
// counting sort lists the cells by group. Each cell's share of the pin
// tuple is read off its key.
func keyGrouping(a *fclass, mv *moves, words int) consumed {
	n, cw := a.len(), a.words
	keys := make([]uint64, 0, n*cw)
	for i := range n {
		keys = append(keys, cellKey(a, i)...)
	}
	key := func(i int) []uint64 { return keys[i*cw : (i+1)*cw] }
	mask := make([]uint64, cw)
	for _, m := range mv.keep {
		mask[m.word] |= m.mask
	}
	project := func(i int) []uint64 {
		to := make([]uint64, words)
		mv.project(key(i), to)
		return to
	}
	in := consumed{group: make([]int32, n), pinPart: make([]int32, n)}
	for i := range n {
		in.pinPart[i] = pinShare(key(i), mv.pin)
	}
	runs := true
	for i := range n {
		if i > 0 {
			if c := maskedCompare(mask, key(i-1), key(i)); c == 0 {
				in.group[i] = in.group[i-1]
				continue
			} else if c > 0 {
				runs = false
				break
			}
		}
		in.group[i] = int32(len(in.start))
		in.start = append(in.start, int32(i))
		in.gkeys = append(in.gkeys, project(i)...)
	}
	if runs {
		for i := range n {
			in.order = append(in.order, int32(i))
		}
		in.start = append(in.start, int32(n))
		return in
	}

	// The hash pass, here a map from the projected key to its group.
	first := map[string]int32{}
	var met [][]uint64
	for i := range n {
		k := project(i)
		s := fmt.Sprint(k)
		g, ok := first[s]
		if !ok {
			g = int32(len(met))
			first[s] = g
			met = append(met, k)
		}
		in.group[i] = g
	}
	order := make([]int32, len(met))
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(x, y int32) int { return slices.Compare(met[x], met[y]) })
	rank := make([]int32, len(met))
	in.gkeys = in.gkeys[:0]
	for j, g := range order {
		rank[g] = int32(j)
		in.gkeys = append(in.gkeys, met[g]...)
	}
	in.start = make([]int32, len(met)+1)
	for i, g := range in.group {
		in.group[i] = rank[g]
		in.start[rank[g]+1]++
	}
	next := make([]int32, len(met))
	for g := range met {
		in.start[g+1] += in.start[g]
		next[g] = in.start[g]
	}
	in.order = make([]int32, n)
	for i, g := range in.group {
		in.order[next[g]] = int32(i)
		next[g]++
	}
	return in
}

// maskedCompare compares a and b on the bytes mask selects.
func maskedCompare(mask, a, b []uint64) int {
	for j, m := range mask {
		if x, y := a[j]&m, b[j]&m; x < y {
			return -1
		} else if x > y {
			return 1
		}
	}
	return 0
}
