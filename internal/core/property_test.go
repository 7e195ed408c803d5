package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// The random graphs are over square matrices, which keeps every binary
// op type-correct so the generators never dead-end.
var (
	randShape      = shape.New(3000, 3000)
	randSrcFormats = []format.Format{
		format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000),
	}
	randKinds = []op.Kind{op.MatMul, op.Add, op.Sub, op.Hadamard, op.Transpose, op.ReLU, op.ScalarMul, op.Neg}
)

func randInput(rng *rand.Rand, g *Graph) *Vertex {
	return g.Input(fmt.Sprintf("in%d", len(g.Vertices)), randShape, 1, randSrcFormats[rng.Intn(len(randSrcFormats))])
}

// randOp draws an op; draw supplies its arguments one at a time.
func randOp(rng *rand.Rand, g *Graph, kinds []op.Kind, draw func() *Vertex) *Vertex {
	o := op.Op{Kind: kinds[rng.Intn(len(kinds))]}
	if o.Kind == op.ScalarMul {
		o.Scalar = rng.Float64()*4 - 2
	}
	ins := []*Vertex{draw()}
	if o.Arity() == 2 {
		ins = append(ins, draw())
	}
	return g.MustApply(o, ins...) // square shapes make every op well-typed
}

// eitherOrder returns a draw that yields a then b, or b then a.
func eitherOrder(rng *rand.Rand, a, b *Vertex) func() *Vertex {
	if rng.Intn(2) == 0 {
		a, b = b, a
	}
	return func() *Vertex {
		next := a
		a = b
		return next
	}
}

// randomDAG generates a small random compute DAG: a few inputs, then ops
// drawn over random existing vertices, with sharing arising naturally
// from re-use.
func randomDAG(rng *rand.Rand, nInputs, nOps int) *Graph {
	g := NewGraph()
	for i := 0; i < nInputs; i++ {
		randInput(rng, g)
	}
	for i := 0; i < nOps; i++ {
		randOp(rng, g, randKinds, func() *Vertex { return g.Vertices[rng.Intn(len(g.Vertices))] })
	}
	return g
}

// sharedDAG generates a DAG with forced sharing, so that frontier classes
// grow wide on graphs Brute still finishes: every op draws at least one
// argument from the last k vertices. After spread such ops, most vertices
// built so far are held back and then folded one by one into the newest
// vertex — until its turn, a held vertex stays on the frontier, in the
// newest vertex's class.
func sharedDAG(rng *rand.Rand, nInputs, spread, k int) *Graph {
	g := NewGraph()
	for i := 0; i < nInputs; i++ {
		randInput(rng, g)
	}
	for i := 0; i < spread; i++ {
		n := len(g.Vertices)
		randOp(rng, g, randKinds, eitherOrder(rng, g.Vertices[n-1-rng.Intn(min(k, n))], g.Vertices[rng.Intn(n)]))
	}
	var held []*Vertex
	for _, v := range g.Vertices[:len(g.Vertices)-1] {
		if len(v.Outs) == 0 || rng.Intn(4) != 0 {
			held = append(held, v)
		}
	}
	rng.Shuffle(len(held), func(i, j int) { held[i], held[j] = held[j], held[i] })
	for _, u := range held {
		randOp(rng, g, randKinds[:4], eitherOrder(rng, u, g.Vertices[len(g.Vertices)-1]))
	}
	return g
}

// randomTree generates a tree-shaped graph: every argument is a fresh
// input or the root of a subtree nothing else consumes.
func randomTree(rng *rand.Rand, nOps int) *Graph {
	g := NewGraph()
	var roots []*Vertex
	for i := 0; i < nOps; i++ {
		roots = append(roots, randOp(rng, g, randKinds, func() *Vertex {
			if len(roots) == 0 || rng.Intn(3) == 0 {
				return randInput(rng, g)
			}
			i := rng.Intn(len(roots))
			v := roots[i]
			roots = slices.Delete(roots, i, i+1)
			return v
		}))
	}
	return g
}

// widestClass returns the size of the largest equivalence class the
// Frontier algorithm builds on g — a property of the graph alone: the
// class of v is the union of its arguments' classes plus v, less the
// vertices with no unvisited consumer left.
func widestClass(g *Graph) int {
	class := make([]int, len(g.Vertices)) // visited vertex → the vertex whose round last absorbed it
	widest := 0
	for _, v := range g.Vertices {
		class[v.ID] = v.ID
		for _, in := range v.Ins {
			absorbed := class[in.ID]
			for _, u := range g.Vertices[:v.ID] {
				if class[u.ID] == absorbed {
					class[u.ID] = v.ID
				}
			}
		}
		size := 0
		for _, u := range g.Vertices[:v.ID+1] {
			if class[u.ID] == v.ID && slices.ContainsFunc(u.Outs, func(o *Vertex) bool { return o.ID > v.ID }) {
				size++
			}
		}
		widest = max(widest, size)
	}
	return widest
}

// TestFrontierMatchesBruteOnRandomDAGs is the core exactness property:
// on every random DAG small enough to search exhaustively, the Frontier
// dynamic program must find a plan with exactly the brute-force optimum's
// cost, and that plan must be type-correct.
func TestFrontierMatchesBruteOnRandomDAGs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search cross-check")
	}
	// A small format universe keeps the brute force tractable.
	universe := []format.Format{format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000)}
	env := NewEnv(costmodel.EC2R5D(4), universe)
	for seed := int64(0); seed < 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, 2+rng.Intn(2), 3+rng.Intn(2))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		fr, frErr := Frontier(g, env)
		br, brErr := Brute(g, env, 2*time.Minute)
		if (frErr == nil) != (brErr == nil) {
			t.Fatalf("seed %d: feasibility disagreement: frontier=%v brute=%v", seed, frErr, brErr)
		}
		if frErr != nil {
			continue
		}
		if d := math.Abs(fr.Total() - br.Total()); d > 1e-9*math.Max(1, br.Total()) {
			t.Errorf("seed %d: Frontier %.9f vs Brute %.9f\n%s\n--- brute ---\n%s",
				seed, fr.Total(), br.Total(), fr.Describe(), br.Describe())
		}
		if err := fr.Verify(env); err != nil {
			t.Errorf("seed %d: frontier annotation invalid: %v", seed, err)
		}
	}
}

// TestFrontierMatchesBruteOnSharedDAGs is the same exactness property
// where the joint tables are wide: 200 graphs from sharedDAG, a good part
// of which must build classes of five or more members.
func TestFrontierMatchesBruteOnSharedDAGs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search cross-check")
	}
	universe := []format.Format{format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000)}
	env := NewEnv(costmodel.EC2R5D(4), universe)
	wide := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		g := sharedDAG(rng, 1+rng.Intn(2), 4, 2+rng.Intn(2))
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if widestClass(g) >= 5 {
			wide++
		}
		fr, frErr := Frontier(g, env)
		br, brErr := Brute(g, env, 2*time.Minute)
		if (frErr == nil) != (brErr == nil) {
			t.Fatalf("seed %d: feasibility disagreement: frontier=%v brute=%v", seed, frErr, brErr)
		}
		if frErr != nil {
			continue
		}
		if d := math.Abs(fr.Total() - br.Total()); d > 1e-9*math.Max(1, br.Total()) {
			t.Errorf("seed %d: Frontier %.9f vs Brute %.9f\n%s\n--- brute ---\n%s",
				seed, fr.Total(), br.Total(), fr.Describe(), br.Describe())
		}
		if err := fr.Verify(env); err != nil {
			t.Errorf("seed %d: frontier annotation invalid: %v", seed, err)
		}
	}
	t.Logf("%d of 200 graphs built a class of ≥ 5 members", wide)
	if wide < 60 {
		t.Errorf("only %d of 200 graphs built a class of ≥ 5 members; the generator no longer forces sharing", wide)
	}
}

// TestFrontierClassesAscendOnSharedDAGs checks the table layout on the
// graphs of TestFrontierMatchesBruteOnSharedDAGs. Every class a search
// builds holds its cells in ascending key order: by construction when at
// most one consumed class has several groups of retained formats, by
// the sort otherwise, and the sort must be taken on some graph.
func TestFrontierClassesAscendOnSharedDAGs(t *testing.T) {
	universe := []format.Format{format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000)}
	env := NewEnv(costmodel.EC2R5D(4), universe)
	sorts := 0
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		g := sharedDAG(rng, 1+rng.Intn(2), 4, 2+rng.Intn(2))

		sc := takeScratch()
		front, _ := NewSession(nil, env).expand(g, sc, nil) // an infeasible graph leaves no frontier
		seen := map[*fclass]bool{}
		var check func(c *fclass)
		check = func(c *fclass) {
			if seen[c] {
				return
			}
			seen[c] = true
			key := func(i int) []uint64 { return cellKey(c, i) }
			for i := 1; i < c.len(); i++ {
				if slices.Compare(key(i-1), key(i)) >= 0 {
					t.Errorf("seed %d: the class built at v%d holds cell %d's key %x after %x", seed, c.from.v.ID, i, key(i), key(i-1))
					break
				}
			}
			if severalGroups(c) >= 2 {
				sorts++
			}
			for _, a := range c.from.args {
				check(a)
			}
		}
		for _, c := range front {
			check(c)
		}
		sc.giveBack()
	}
	t.Logf("%d classes were sorted by key", sorts)
	if sorts == 0 {
		t.Error("no round had two consumed classes of several groups; the sort path went untested")
	}
}

// TestClassKeysFollowBackPointers rebuilds the key of every cell of every
// class a search builds member by member, from the cell's back-pointers
// alone — no groups, no strides: v's byte is its choice's output format,
// and every other retained member's byte is that member's byte in the
// parent cell of the consumed class that held it — and requires the key
// the cell's entries make of its class's parts. It runs on the graphs
// of TestFrontierMatchesBruteOnSharedDAGs, whose rounds stream classes
// whose groups are runs of cells and, where retained formats fall,
// classes grouped by a hash pass, and take the sort path; on the same graphs where
// the only transformation is a gather to a single machine, so that an
// argument's format limits v's and classes have empty output cells; and
// on the benchmark's block inverse, whose widest round is cut by the beam.
func TestClassKeysFollowBackPointers(t *testing.T) {
	var cover struct{ runs, hashed, sorted, cut, empty int }
	check := func(name string, g *Graph, env *Env) {
		sess := NewSession(nil, env)
		sc := takeScratch()
		defer sc.giveBack()
		front, err := sess.expand(g, sc, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cover.cut += sess.stats.EntriesPruned
		seen := map[*fclass]bool{}
		var walk func(c *fclass)
		walk = func(c *fclass) {
			x := c.from
			if seen[c] || x.v.IsSource {
				return
			}
			seen[c] = true
			for _, a := range x.args {
				walk(a)
			}
			if streamedRuns(c) {
				cover.runs++
			} else {
				cover.hashed++
			}
			if severalGroups(c) >= 2 {
				cover.sorted++
			}
			if c.len() < DefaultMaxClassEntries && c.len() < possibleCells(c) {
				cover.empty++
			}
			want := make([]uint64, c.words)
			for i := range c.len() {
				clear(want)
				for p, id := range c.members {
					w, sh := keyPos(p)
					var b uint64
					if id == x.v.ID {
						b = x.choices[c.choice[i]].outBits >> sh & 0xff
					} else {
						k := slices.IndexFunc(x.args, func(a *fclass) bool { return slices.Contains(a.members, id) })
						a, from := x.args[k], int(c.parent[i*len(x.args)+k])
						aw, ash := keyPos(slices.Index(a.members, id))
						b = cellKey(a, from)[aw] >> ash & 0xff
					}
					want[w] |= b << sh
				}
				if got := cellKey(c, i); !slices.Equal(got, want) {
					t.Errorf("%s: the class built at v%d holds key %x at cell %d; its back-pointers give %x", name, x.v.ID, got, i, want)
					return
				}
			}
		}
		for _, c := range front {
			walk(c)
		}
	}

	env, gather := sharedEnvs()
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(3000 + seed))
		g := sharedDAG(rng, 1+rng.Intn(2), 4, 2+rng.Intn(2))
		check(fmt.Sprintf("seed %d", seed), g, env)
		check(fmt.Sprintf("seed %d, gather only", seed), g, gather)
	}
	check("block inverse", InverseColdGraph(t), NewEnv(costmodel.LocalTest(2), format.All()))
	t.Logf("%d classes streamed from runs of cells, %d from hash-grouped cells, %d sorted, %d with empty output cells, %d cells beam-cut",
		cover.runs, cover.hashed, cover.sorted, cover.empty, cover.cut)
	if cover.runs == 0 || cover.hashed == 0 || cover.sorted == 0 || cover.empty == 0 || cover.cut == 0 {
		t.Error("a path of the streamed walk went untested")
	}
}

// streamedRuns reports whether the consumed class the round that built c
// streamed — the one of the most groups of the formats c retains, then of
// the most cells, the first on a tie — has groups that are runs of cells:
// whether its retained formats never fall along its key order.
func streamedRuns(c *fclass) bool {
	args, s := c.from.args, 0
	for k, a := range args {
		if g, gs := len(retainedGroups(a, c)), len(retainedGroups(args[s], c)); g > gs || g == gs && a.len() > args[s].len() {
			s = k
		}
	}
	for i := 1; i < args[s].len(); i++ {
		if retainedFormats(args[s], c, i) < retainedFormats(args[s], c, i-1) {
			return false
		}
	}
	return true
}

// possibleCells is the number of slots of the table the class c was
// built from: the product of the consumed classes' groups of the formats
// c retains and the round's output cells.
func possibleCells(c *fclass) int {
	outs := map[uint64]bool{}
	for _, ch := range c.from.choices {
		outs[ch.outBits] = true
	}
	n := len(outs)
	for _, a := range c.from.args {
		n *= len(retainedGroups(a, c))
	}
	return n
}

// retainedGroups returns the distinct formats, as one byte per member, of
// the members of c among the members of a, over a's cells.
func retainedGroups(a, c *fclass) map[string]bool {
	groups := map[string]bool{}
	for i := range a.len() {
		groups[retainedFormats(a, c, i)] = true
	}
	return groups
}

// retainedFormats returns the formats of cell i of a, one byte per
// member, of the members of c among the members of a.
func retainedFormats(a, c *fclass, i int) string {
	var b []byte
	for p, id := range a.members {
		if slices.Contains(c.members, id) {
			w, sh := keyPos(p)
			b = append(b, byte(cellKey(a, i)[w]>>sh))
		}
	}
	return string(b)
}

// TestGroupsFollowKeyOrder lays out small consumed classes given by
// their parts — keys of one word, each cell an entry of every part — and
// checks the groups the round reads off them: formats that never fall
// form runs; formats that fall and first meet out of order are
// renumbered so that group order is still key order; different entries
// of a part whose retained formats are equal, and parts whose retained
// bytes interleave or whose own retained formats fall, still give one
// group per distinct retained formats, in key order. Either way the cells
// come back in group order, in cell order within a group, each with its
// share of the pin tuple.
func TestGroupsFollowKeyOrder(t *testing.T) {
	type tc struct {
		name      string
		parts     [][]uint64 // per part its entries' keys; the last part's are the output cells'
		cells     [][]int32  // per cell its entry of each part
		mv        moves
		ids       []int32
		groupKeys []uint64
		order     []int32
		start     []int32
		pinPart   []int32
	}
	keep := func(mask uint64) []wordMove { return []wordMove{{mask: mask}} }
	for _, tc := range []tc{
		{name: "runs", // the group's byte, then the output cell's, which is not retained
			parts: [][]uint64{{1 << 8, 2 << 8, 5 << 8}, {0, 1}},
			cells: [][]int32{{0, 0}, {0, 1}, {1, 0}, {2, 0}, {2, 1}},
			mv:    moves{keep: keep(0xff00), pin: []pinMove{{shift: 0, weight: 10}}},
			ids:   []int32{0, 0, 1, 2, 2}, groupKeys: []uint64{1 << 8, 2 << 8, 5 << 8},
			order: []int32{0, 1, 2, 3, 4}, start: []int32{0, 2, 3, 5}, pinPart: []int32{0, 10, 0, 0, 10}},
		{name: "falls", // only the output cell's byte is retained
			parts: [][]uint64{{0, 1 << 8, 2 << 8, 3 << 8}, {0, 1, 2}},
			cells: [][]int32{{0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 1}, {3, 0}},
			mv:    moves{keep: keep(0xff), pin: []pinMove{{shift: 8, weight: 1}}},
			ids:   []int32{1, 2, 0, 2, 1, 0}, groupKeys: []uint64{0, 1, 2},
			order: []int32{2, 5, 0, 4, 1, 3}, start: []int32{0, 2, 4, 6}, pinPart: []int32{0, 0, 1, 1, 2, 3}},
		{name: "equal entries", // entries 0 and 1 of the group part differ only in a byte that is not retained
			parts: [][]uint64{{1 << 16, 1<<16 | 5<<8, 2 << 16}, {0, 1}},
			cells: [][]int32{{0, 0}, {1, 0}, {1, 1}, {2, 0}},
			mv:    moves{keep: keep(0xff0000)},
			ids:   []int32{0, 0, 0, 1}, groupKeys: []uint64{1 << 16, 2 << 16},
			order: []int32{0, 1, 2, 3}, start: []int32{0, 3, 4}, pinPart: []int32{0, 0, 0, 0}},
		{name: "interleaved", // part 0's bytes come before and after part 1's
			parts: [][]uint64{{1, 1<<16 | 0}, {1 << 8, 2 << 8}, {0}},
			cells: [][]int32{{0, 0, 0}, {0, 1, 0}, {1, 0, 0}, {1, 1, 0}},
			mv:    moves{keep: keep(0xffffff)},
			ids:   []int32{0, 1, 2, 3}, groupKeys: []uint64{1<<8 | 1, 2<<8 | 1, 1<<16 | 1<<8, 1<<16 | 2<<8},
			order: []int32{0, 1, 2, 3}, start: []int32{0, 1, 2, 3, 4}, pinPart: []int32{0, 0, 0, 0}},
		{name: "part falls", // the group part's retained byte falls along its entries
			parts: [][]uint64{{1<<8 | 2, 2<<8 | 1, 3<<8 | 2}, {0}},
			cells: [][]int32{{0, 0}, {1, 0}, {2, 0}},
			mv:    moves{keep: keep(0xff)},
			ids:   []int32{1, 0, 1}, groupKeys: []uint64{1, 2},
			order: []int32{1, 0, 2}, start: []int32{0, 1, 3}, pinPart: []int32{0, 0, 0}},
	} {
		c := layoutClass(tc.parts, tc.cells)
		sc := takeScratch()
		in := &consumed{group: make([]int32, len(tc.cells)), pinPart: make([]int32, len(tc.cells))}
		sc.layout(in, c, &tc.mv, 1)
		if !slices.Equal(in.gkeys, tc.groupKeys) || !slices.Equal(in.group, tc.ids) || !slices.Equal(in.order, tc.order) ||
			!slices.Equal(in.start, tc.start) || !slices.Equal(in.pinPart, tc.pinPart) {
			t.Errorf("%s: group keys %x, cell groups %v, order %v, starts %v and pin shares %v, want %x, %v, %v, %v and %v",
				tc.name, in.gkeys, in.group, in.order, in.start, in.pinPart, tc.groupKeys, tc.ids, tc.order, tc.start, tc.pinPart)
		}
		sc.giveBack()
	}
}

// layoutClass returns a class of one-word keys with the given parts,
// whose i-th cell is entry cells[i][k] of each part k.
func layoutClass(keys [][]uint64, entries [][]int32) *fclass {
	nargs := len(keys) - 1
	c := &fclass{from: &expansion{}, parts: parts{words: 1, keys: keys}, cells: cells{nargs: nargs}}
	for _, e := range entries {
		c.cost = append(c.cost, 0)
		c.choice = append(c.choice, -1)
		c.parent = append(c.parent, e[:nargs]...)
		c.entry = append(c.entry, e...)
	}
	return c
}

// severalGroups counts the classes consumed to build c whose cells fall
// into more than one group by the formats of the members c retains.
func severalGroups(c *fclass) int {
	n := 0
	for _, a := range c.from.args {
		if len(retainedGroups(a, c)) > 1 {
			n++
		}
	}
	return n
}

// TestFrontierMatchesTreeDPOnRandomTrees runs random trees through both
// dynamic programs over the full format universe. The costs must agree
// and both plans verify; the plans themselves may differ where two are
// equally cheap, because TreeDP breaks ties in map order — Frontier does
// not, so its plan must be the same one on every run.
func TestFrontierMatchesTreeDPOnRandomTrees(t *testing.T) {
	env := NewEnv(costmodel.EC2R5D(8), format.All())
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		g := randomTree(rng, 4+rng.Intn(8))
		dp, dpErr := TreeDP(g, env)
		fr, frErr := Frontier(g, env)
		if (frErr == nil) != (dpErr == nil) {
			t.Fatalf("seed %d: feasibility disagreement: frontier=%v treedp=%v", seed, frErr, dpErr)
		}
		if frErr != nil {
			continue
		}
		if d := math.Abs(fr.Total() - dp.Total()); d > 1e-9*math.Max(1, dp.Total()) {
			t.Errorf("seed %d: Frontier %.9f vs TreeDP %.9f\n%s\n--- treedp ---\n%s",
				seed, fr.Total(), dp.Total(), fr.Describe(), dp.Describe())
		}
		for name, ann := range map[string]*Annotation{"frontier": fr, "treedp": dp} {
			if err := ann.Verify(env); err != nil {
				t.Errorf("seed %d: %s annotation invalid: %v", seed, name, err)
			}
		}
		first := fr.Describe()
		for repeat := 1; repeat <= 3; repeat++ {
			again, err := Frontier(g, env)
			if err != nil {
				t.Fatalf("seed %d: repeat %d: %v", seed, repeat, err)
			}
			if got := again.Describe(); got != first {
				t.Errorf("seed %d: Frontier's plan differs on repeat %d\n%s\n--- first ---\n%s", seed, repeat, got, first)
			}
		}
	}
}

// TestTreeDPMatchesBruteOnRandomChains checks the tree algorithm the
// same way on random-format chains.
func TestTreeDPMatchesBruteOnRandomChains(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive search cross-check")
	}
	universe := []format.Format{format.NewSingle(), format.NewTile(1000), format.NewRowStrip(1000), format.NewColStrip(1000)}
	env := NewEnv(costmodel.EC2R5D(4), universe)
	for seed := int64(0); seed < 15; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		g := NewGraph()
		s := shape.New(3000, 3000)
		cur := g.Input("a", s, 1, universe[rng.Intn(len(universe))])
		nOps := 2 + rng.Intn(3)
		for i := 0; i < nOps; i++ {
			if rng.Intn(2) == 0 {
				nxt := g.Input(string(rune('b'+i)), s, 1, universe[rng.Intn(len(universe))])
				cur = g.MustApply(op.Op{Kind: op.MatMul}, cur, nxt)
			} else {
				cur = g.MustApply(op.Op{Kind: op.ReLU}, cur)
			}
		}
		dp, dpErr := TreeDP(g, env)
		br, brErr := Brute(g, env, 2*time.Minute)
		if (dpErr == nil) != (brErr == nil) {
			t.Fatalf("seed %d: feasibility disagreement: dp=%v brute=%v", seed, dpErr, brErr)
		}
		if dpErr != nil {
			continue
		}
		if d := math.Abs(dp.Total() - br.Total()); d > 1e-9*math.Max(1, br.Total()) {
			t.Errorf("seed %d: TreeDP %.9f vs Brute %.9f", seed, dp.Total(), br.Total())
		}
	}
}

// TestFrontierVerifyOnRandomDAGs runs larger random DAGs (beyond brute's
// reach) through the frontier algorithm and checks type-correctness and
// the greedy upper bound.
func TestFrontierVerifyOnRandomDAGs(t *testing.T) {
	env := NewEnv(costmodel.EC2R5D(8), format.All())
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(2000 + seed))
		g := randomDAG(rng, 3, 8)
		fr, err := Frontier(g, env)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := fr.Verify(env); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
		greedy, err := GreedyAnnotate(g, env, nil)
		if err != nil {
			t.Fatalf("seed %d greedy: %v", seed, err)
		}
		if fr.Total() > greedy.Total()+1e-9 {
			t.Errorf("seed %d: frontier %.4f worse than greedy %.4f", seed, fr.Total(), greedy.Total())
		}
	}
}
