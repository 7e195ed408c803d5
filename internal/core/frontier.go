package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"

	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/obs"
)

// The Frontier algorithm (Algorithm 4) generalizes the tree DP to DAGs
// with shared sub-computations. The frontier cuts the graph into an
// optimized and an unoptimized portion; vertices along the frontier that
// share ancestors are grouped into equivalence classes, and F is
// maintained jointly per class: F(V, p) is the minimum cost to compute
// every vertex in class V with the output formats fixed to the vector p.
//
// One round expands one vertex v: it consumes the classes holding v's
// arguments and builds the class of their surviving members plus v. A
// round has two steps. The best-choice table (bestChoices) decides, once
// per tuple of formats the arguments can arrive in, which
// (transformations, implementation) choices can win a cell at all; the
// combo walk (round.walk) then crosses the consumed classes' cells and
// offers each new cell the cheapest such choice. The new cells live in a
// dense table indexed by the consumed cells' groups of retained formats
// and v's output format, not by a hashed key. DESIGN.md §7 has the
// layout and the argument for why the result is independent of the walk
// order.

// formatIDs gives every format one Frontier run can meet a dense byte
// id, so cost-table keys are integers. Ids are assigned once, serially
// and in a fixed order (the environment's universe, the source formats in
// vertex order, the transformation targets), before the first round; the
// run only reads them afterwards.
type formatIDs struct {
	ids     map[format.Format]uint8
	formats []format.Format
}

func internFormats(g *Graph, env *Env) (*formatIDs, error) {
	in := &formatIDs{ids: make(map[format.Format]uint8)}
	add := func(f format.Format) {
		if _, ok := in.ids[f]; !ok {
			in.ids[f] = uint8(len(in.formats))
			in.formats = append(in.formats, f)
		}
	}
	for _, f := range env.Formats {
		add(f)
	}
	for _, v := range g.Vertices {
		if v.IsSource {
			add(v.SrcFormat)
		}
	}
	for _, tr := range env.Transforms {
		if !tr.Identity() {
			add(tr.Target())
		}
	}
	if len(in.formats) > 256 {
		return nil, internalf("more than 256 distinct formats in one optimization")
	}
	return in, nil
}

// A cell's key is the formats of its class's members: one id byte each,
// in member order, packed big-endian into ⌈members/8⌉ uint64 words.
// Comparing two keys of a class word by word therefore compares the
// member formats lexicographically by id. keyPos returns the word and the
// shift of the key byte of member position p.
func keyPos(p int) (word int, shift uint) { return p >> 3, uint(56 - 8*(p&7)) }

// fclass is one equivalence class along the frontier with its joint cost
// table: flat, pointer-free arrays of cells in ascending key order. A
// cell is F(V, p) plus its back-pointers — which choice of the expansion
// that built the class produced it, from which cell of each class that
// expansion consumed. The member formats, argument pins, transformations
// and implementation are read back through those at backtrack time.
type fclass struct {
	members []int      // sorted vertex IDs still on the frontier
	words   int        // key words per cell
	keys    []uint64   // cell i: keys[i*words : (i+1)*words]
	cost    []float64  // cell i: F(V, p)
	from    *expansion // the round that built the cells
	choice  []int32    // cell i: index into from.choices
	parent  []int32    // cell i: parent[i*len(from.args)+k] indexes from.args[k]
}

func (c *fclass) len() int { return len(c.cost) }

// expansion records one round — vertex v consuming the classes args —
// for as long as the class it built is reachable: the best-choice table
// is what the cells' choice indices point into.
type expansion struct {
	v       *Vertex
	args    []*fclass    // consumed classes, in order of first use by v's arguments
	choices []choice     // ordered by (pin tuple, output cell, enumeration order)
	edges   []EdgeChoice // choices[i] transforms argument j by edges[i*len(v.Ins)+j]
}

// choice is one way to compute v from arguments pinned to given formats:
// a transformation per argument and an implementation.
type choice struct {
	outBits  uint64 // the output format's id at v's own key byte; 0 when v leaves the frontier at once
	outOf    int32  // the output cell: outBits's rank among the round's distinct outBits
	trCost   float64
	implCost float64
	out      format.Format
	im       *impl.Impl
}

// backtrack labels the annotation along the sub-plan that ends in one
// cell of the class. Every class is consumed by exactly one round, so
// the walk down the back-pointers is a tree and visits each class once.
func (c *fclass) backtrack(cell int, ann *Annotation) {
	x := c.from
	v := x.v
	if v.IsSource {
		return
	}
	ci := int(c.choice[cell])
	ch := &x.choices[ci]
	edges := x.edges[ci*len(v.Ins) : (ci+1)*len(v.Ins)]
	ann.Decide(v, Decision{Impl: ch.im, Format: ch.out, Cost: ch.implCost, Edges: edges})
	for k, p := range x.args {
		p.backtrack(int(c.parent[cell*len(x.args)+k]), ann)
	}
}

// cellTable collects the winners of one round in flat arrays with one
// slot per possible cell of the class being built: slot = Σ group·stride
// over the consumed classes + output cell (see round). choice −1 marks an
// empty slot. A cell is won by the lowest cost and, at equal cost, the
// lowest choice index — a rule that does not depend on the order offers
// arrive in.
type cellTable struct {
	nargs  int
	cost   []float64
	choice []int32
	parent []int32
}

// reset empties the table for a round with the given number of slots;
// the arrays of earlier rounds and searches are reused.
func (t *cellTable) reset(slots, nargs int) {
	t.nargs = nargs
	t.cost = reuse(t.cost, slots, math.NaN())
	t.choice = reuse(t.choice, slots, -1)
	for s := range t.choice {
		t.choice[s] = -1
	}
	t.parent = reuse(t.parent, slots*nargs, -1)
}

// offer proposes (cost, choice, parents) for the cell in slot s.
func (t *cellTable) offer(s int, cost float64, choice int32, parents []int32) {
	if old := t.choice[s]; old < 0 || cost < t.cost[s] || cost == t.cost[s] && choice < old {
		t.cost[s], t.choice[s] = cost, choice
		copy(t.parent[s*t.nargs:], parents)
	}
}

// kthSmallest returns the value that k values of a are no larger than
// (k counts from 0), by quickselect; it reorders a.
func kthSmallest(a []float64, k int) float64 {
	for lo, hi := 0, len(a)-1; lo < hi; {
		pivot := a[lo+(hi-lo)/2]
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i, j = i+1, j-1
			}
		}
		switch {
		case k <= j:
			hi = j
		case k >= i:
			lo = i
		default:
			return a[k]
		}
	}
	return a[k]
}

// class turns the round's table into a frontier class: cells in
// ascending key order, beam-limited to the cheapest beam of them (see
// Env.MaxClassEntries). It reports how many cells the beam dropped. Ties
// at the cut are broken on the key, so pruning is deterministic. The
// occupied slots move to the front of the table in slot order, which is
// key order when r.sorted holds; otherwise they are sorted by key once.
// The class's cells are cut from the scratch.
func (r *round) class(sc *scratch, t *cellTable, members []int, beam int) (*fclass, int) {
	w, nargs := r.words, t.nargs
	n := 0
	for s, ch := range t.choice {
		if ch < 0 {
			continue
		}
		t.cost[n], t.choice[n] = t.cost[s], ch
		copy(t.parent[n*nargs:(n+1)*nargs], t.parent[s*nargs:(s+1)*nargs])
		n++
	}
	cost, choice, parent := t.cost[:n], t.choice[:n], t.parent[:n*nargs]
	sc.order = reuse(sc.order, n, -1)
	order := sc.order // cell indices, ascending by key
	for i := range order {
		order[i] = int32(i)
	}
	if !r.sorted {
		sc.keys = reuse(sc.keys, n*w, math.MaxUint64)
		for i := range n {
			r.key(sc.keys[i*w:(i+1)*w], choice[i], parent[i*nargs:(i+1)*nargs])
		}
		key := func(i int32) []uint64 { return sc.keys[int(i)*w : (int(i)+1)*w] }
		slices.SortFunc(order, func(a, b int32) int { return slices.Compare(key(a), key(b)) })
	}
	pruned := 0
	if n > beam {
		// The cheapest beam cells by (cost, key): every cell below the
		// beam-th smallest cost, then cells at that cost in key order.
		sc.costs = reuse(sc.costs, n, math.NaN())
		copy(sc.costs, cost)
		cut := kthSmallest(sc.costs, beam-1)
		atCut := beam
		for _, c := range cost {
			if c < cut {
				atCut--
			}
		}
		order = slices.DeleteFunc(order, func(i int32) bool {
			if cost[i] == cut {
				atCut--
				return atCut < 0
			}
			return cost[i] > cut
		})
		pruned = n - beam
	}
	c := &fclass{
		members: members,
		words:   w,
		keys:    sc.u64.take(len(order) * w),
		cost:    sc.f64.take(len(order)),
		from:    r.x,
		choice:  sc.i32.take(len(order)),
		parent:  sc.i32.take(len(order) * nargs),
	}
	for i, at := range order {
		c.cost[i] = cost[at]
		c.choice[i] = choice[at]
		copy(c.parent[i*nargs:], parent[int(at)*nargs:(int(at)+1)*nargs])
		r.key(c.keys[i*w:(i+1)*w], c.choice[i], c.parent[i*nargs:(i+1)*nargs])
	}
	return c, pruned
}

// key writes the key of the cell that choice built on the given cells of
// the consumed classes.
func (r *round) key(key []uint64, choice int32, parents []int32) {
	clear(key)
	if r.vWord >= 0 {
		key[r.vWord] = r.x.choices[choice].outBits
	}
	for k, p := range parents {
		g := int(r.group[k][p])
		for w, b := range r.gkeys[k][g*r.words : (g+1)*r.words] {
			key[w] |= b
		}
	}
}

// Frontier runs the Frontier DP with a fresh uncancellable session; see
// Session.Frontier.
func Frontier(g *Graph, env *Env) (*Annotation, error) {
	return NewSession(nil, env).Frontier(g)
}

// Frontier computes the optimal annotation of a general compute DAG.
// Each round's best-choice table is built serially; the combo walk over
// the consumed classes' cells runs on a worker pool bounded by the
// session's parallelism. A cell's winner is defined by (cost, choice
// index), not by arrival order, so parallel and serial runs produce
// byte-identical plans and costs. The search's working memory is one
// scratch (scratch.go), given back on every return: each round's walk
// has joined by then.
func (s *Session) Frontier(g *Graph) (ann *Annotation, err error) {
	start := time.Now()
	fspan := s.tr.Start(s.span, "frontier")
	sc := takeScratch()
	defer func() {
		sc.giveBack()
		s.finish(ann, start)
		fspan.SetInt("classes", int64(s.stats.ClassesExpanded)).
			SetInt("candidates", s.stats.CandidatesEvaluated).
			SetInt("pruned", int64(s.stats.EntriesPruned)).
			End()
	}()
	front, err := s.expand(g, sc, fspan)
	if err != nil {
		return nil, err
	}

	// Every class remaining on the frontier contributes its cheapest
	// cell — at equal cost the one with the lowest key; classes are
	// ancestor-disjoint, so costs add.
	ann = NewAnnotation(g)
	for _, c := range front {
		best := 0
		for i, cost := range c.cost {
			if cost < c.cost[best] {
				best = i
			}
		}
		c.backtrack(best, ann)
	}
	return ann, nil
}

// expand runs every round of the search and returns the classes left on
// the frontier. Their cells are cut from sc.
func (s *Session) expand(g *Graph, sc *scratch, fspan *obs.Span) ([]*fclass, error) {
	var rspan *obs.Span // current frontier.round
	defer func() { rspan.End() }()
	env := s.env
	ids, err := internFormats(g, env)
	if err != nil {
		return nil, err
	}
	cache := make(transCache)
	beam := env.MaxClassEntries
	if beam <= 0 {
		beam = DefaultMaxClassEntries
	}

	tables := sc.walkTables(s.parallelism) // one per walk goroutine, reused round after round
	visited := make([]bool, len(g.Vertices))
	classOf := make(map[int]*fclass) // frontier vertex → its class
	var front []*fclass

	addClass := func(c *fclass) {
		front = append(front, c)
		for _, id := range c.members {
			classOf[id] = c
		}
	}
	removeClass := func(c *fclass) {
		for i, x := range front {
			if x == c {
				front = append(front[:i], front[i+1:]...)
				break
			}
		}
		for _, id := range c.members {
			delete(classOf, id)
		}
	}

	for _, v := range g.Vertices {
		if !v.IsSource {
			continue
		}
		visited[v.ID] = true
		_, shift := keyPos(0)
		addClass(&fclass{
			members: []int{v.ID},
			words:   1,
			keys:    []uint64{uint64(ids.ids[v.SrcFormat]) << shift},
			cost:    []float64{0},
			from:    &expansion{v: v},
		})
	}

	for _, v := range g.Vertices {
		if v.IsSource {
			continue
		}
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		visited[v.ID] = true
		s.stats.ClassesExpanded++
		rspan.End()
		rspan = s.tr.Start(fspan, "frontier.round").SetInt("vertex", int64(v.ID))

		// The classes feeding v (line 10 of Algorithm 4).
		var argClasses []*fclass
		for _, in := range v.Ins {
			c := classOf[in.ID]
			if c == nil {
				return nil, internalf("parent v%d left the frontier before its consumer v%d was optimized", in.ID, v.ID)
			}
			if !slices.Contains(argClasses, c) {
				argClasses = append(argClasses, c)
			}
		}

		// New class: merged members plus v, minus vertices whose
		// out-edges all lead to visited vertices (line 13).
		stillLive := func(id int) bool {
			for _, out := range g.Vertices[id].Outs {
				if !visited[out.ID] {
					return true
				}
			}
			return false
		}
		var newMembers []int
		for _, c := range argClasses {
			for _, id := range c.members {
				if stillLive(id) {
					newMembers = append(newMembers, id)
				}
			}
		}
		if stillLive(v.ID) {
			newMembers = append(newMembers, v.ID)
		}
		slices.Sort(newMembers)

		r, err := s.newRound(sc, v, argClasses, newMembers, ids, cache)
		if err != nil {
			return nil, err
		}
		table := r.run(s.ctx, tables)
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		class, pruned := r.class(sc, table, newMembers, beam)
		if class.len() == 0 {
			return nil, ErrInfeasible
		}
		s.stats.EntriesPruned += pruned
		rspan.SetInt("combos", int64(r.combos)).SetInt("entries", int64(class.len()))

		for _, c := range argClasses {
			removeClass(c)
		}
		addClass(class)
	}
	return front, nil
}

// round is the working state of one expansion: where each consumed cell
// lands in the table and in the pin tuple, and which choices each pin
// tuple has. It is read-only once built, so the walk can fan out.
//
// A consumed class's cells fall into groups by their retained members'
// formats, numbered in key order. The table has one slot per (group of
// every consumed class, output cell): slot = Σ group·stride + output
// cell, a mixed-radix number whose digits are the classes' groups, first
// class most significant, and then the output cell. The classes' retained
// members are disjoint, so slots and keys of the class being built
// correspond one to one.
type round struct {
	x      *expansion
	combos int // Π len(args[k]): the cross product the walk covers
	words  int // key words of the class being built
	vWord  int // word and shift of v's own key byte; vWord is −1 when v leaves the frontier at once
	vShift uint
	// Per consumed class and cell: its group and its share of the
	// pin-tuple index.
	group   [][]int32
	pinPart [][]int32
	// Per consumed class: the weight of its group in the slot, and per
	// group the retained members' formats at their positions in the new key.
	stride []int32
	gkeys  [][]uint64
	slots  int    // Π groups · output cells
	sorted bool   // slot order is key order
	spans  []span // pin-tuple index → its range of x.choices

	// What bestChoices enumerates. A pin tuple's index is the format ids
	// its arguments arrive in, as digits in radix len(ids.formats) with
	// argument 0 most significant: ascending index is ascending
	// lexicographic order of the ids.
	weight    []int32         // argument → weight of its digit
	pins      [][][]argOption // argument → pin's format id → transformation options; nil if never delivered
	delivered []int           // argument → weight of its delivered format in the evaluation index
}

type span struct{ lo, hi int32 }

// implEval is one implementation's result on one combination of
// delivered formats.
type implEval struct {
	out   format.Format
	outID uint8
	cost  float64
	ok    bool
}

// argOption is one transformation option, with the delivered format
// numbered among the formats its argument can be delivered in this round.
type argOption struct {
	transOption
	delivered int
}

// newRound lays out the expansion of v over the consumed classes and
// builds its best-choice table. Its per-cell and per-tuple arrays come
// from the scratch and live until the next round.
func (s *Session) newRound(sc *scratch, v *Vertex, args []*fclass, members []int, ids *formatIDs, cache transCache) (*round, error) {
	nargs := len(v.Ins)
	radix := int32(len(ids.formats))
	r := &round{
		x:         &expansion{v: v, args: args},
		combos:    1,
		words:     (len(members) + 7) / 8,
		vWord:     -1,
		group:     make([][]int32, len(args)),
		pinPart:   make([][]int32, len(args)),
		stride:    make([]int32, len(args)),
		gkeys:     make([][]uint64, len(args)),
		weight:    make([]int32, nargs),
		pins:      make([][][]argOption, nargs),
		delivered: make([]int, nargs),
	}
	if p, ok := slices.BinarySearch(members, v.ID); ok {
		r.vWord, r.vShift = keyPos(p)
	}
	tuples := int32(1)
	for a := nargs - 1; a >= 0; a-- {
		r.weight[a] = tuples
		tuples *= radix
	}
	// Only the deliverable tuples' spans are written, and only they are read.
	sc.spans = reuse(sc.spans, int(tuples), span{-1, -1})
	r.spans = sc.spans

	// Each consumed cell's group and its share of the pin tuple. The pin
	// tuples the classes can deliver are the sums of one share per class.
	deliverable := []int32{0}
	groups := make([]int, len(args))
	for k, c := range args {
		r.combos *= c.len()
		// Retained members' key bytes move from c's keys into the new key.
		// Members that share the source word, the destination word and the
		// shift distance move as one masked word.
		type wordMove struct {
			word, toWord int
			mask         uint64 // the source word's bytes that move
			left, right  uint   // the shift distance; one of them is 0
		}
		// An argument's key byte adds its weighted format id to the tuple.
		type pinMove struct {
			word   int
			shift  uint
			weight int32
		}
		var keep []wordMove
		var pin []pinMove
		for p, id := range c.members {
			w, sh := keyPos(p)
			if np, ok := slices.BinarySearch(members, id); ok {
				m := wordMove{word: w, mask: 0xff << sh}
				var tsh uint
				m.toWord, tsh = keyPos(np)
				if tsh >= sh {
					m.left = tsh - sh
				} else {
					m.right = sh - tsh
				}
				if n := len(keep) - 1; n >= 0 && keep[n].word == m.word && keep[n].toWord == m.toWord &&
					keep[n].left == m.left && keep[n].right == m.right {
					keep[n].mask |= m.mask
				} else {
					keep = append(keep, m)
				}
			}
			for a, in := range v.Ins {
				if in.ID == id {
					pin = append(pin, pinMove{word: w, shift: sh, weight: r.weight[a]})
				}
			}
		}
		// project ORs cell i's retained formats into to, at their
		// positions in the new key.
		project := func(i int, to []uint64) {
			key := c.keys[i*c.words : (i+1)*c.words]
			for _, m := range keep {
				to[m.toWord] |= (key[m.word] & m.mask) << m.left >> m.right
			}
		}
		r.group[k] = sc.i32.take(c.len())
		groups[k], r.gkeys[k] = sc.group(c.len(), r.words, project, r.group[k])

		part := sc.i32.take(c.len())
		sc.seen = reuse(sc.seen, int(tuples), true)
		seen := sc.seen
		clear(seen)
		var shares []int32
		for i := range part {
			key := c.keys[i*c.words : (i+1)*c.words]
			share := int32(0)
			for _, m := range pin {
				share += int32(key[m.word]>>m.shift&0xff) * m.weight
			}
			part[i] = share
			if !seen[share] {
				seen[share] = true
				shares = append(shares, share)
			}
		}
		r.pinPart[k] = part
		sums := make([]int32, 0, len(deliverable)*len(shares))
		for _, d := range deliverable {
			for _, sh := range shares {
				sums = append(sums, d+sh)
			}
		}
		deliverable = sums
	}
	slices.Sort(deliverable)

	// The transformation options out of every pin a deliverable tuple
	// holds, with the delivered formats numbered per argument:
	// implementation evaluations memoize in a flat array indexed by those
	// numbers.
	evals := 1
	for a, in := range v.Ins {
		r.pins[a] = make([][]argOption, radix)
		var number [256]int // delivered format id → its number + 1
		n := 0
		for _, t := range deliverable {
			id := t / r.weight[a] % radix
			if r.pins[a][id] != nil {
				continue
			}
			opts := s.env.transOptions(cache, in, ids.formats[id])
			r.pins[a][id] = make([]argOption, len(opts))
			for o, to := range opts {
				did, ok := ids.ids[to.pout]
				if !ok {
					return nil, internalf("transformation %s at v%d delivers a format that was not interned", to.tr.Name, v.ID)
				}
				if number[did] == 0 {
					n++
					number[did] = n
				}
				r.pins[a][id][o] = argOption{transOption: to, delivered: number[did] - 1}
			}
		}
		r.delivered[a] = evals
		evals *= n
	}

	if err := s.bestChoices(r, sc, ids, deliverable, evals); err != nil {
		return nil, err
	}

	// The output cells are the choices' distinct output formats, ascending.
	var outOf [256]int32 // v's key byte → its output cell + 1
	for i := range r.x.choices {
		outOf[r.x.choices[i].outBits>>r.vShift] = 1
	}
	outs := int32(0)
	for id := range outOf {
		if outOf[id] != 0 {
			outs++
			outOf[id] = outs
		}
	}
	for i := range r.x.choices {
		ch := &r.x.choices[i]
		ch.outOf = outOf[ch.outBits>>r.vShift] - 1
	}
	// Slot strides, from the last class up. With at most one class of
	// several groups a slot orders its cells by (group, output cell), which
	// is key order: v has the largest ID among the members, so its byte is
	// the key's least significant.
	stride, several := int(outs), 0
	for k := len(args) - 1; k >= 0; k-- {
		r.stride[k] = int32(stride)
		if groups[k] > 1 {
			several++
		}
		if stride > math.MaxInt32/groups[k] {
			return nil, internalf("the class built at v%d has more than 2^31 possible cells", v.ID)
		}
		stride *= groups[k]
	}
	r.slots = stride
	r.sorted = several <= 1
	return r, nil
}

// group numbers a class's n cells by their retained formats, which
// project ORs into a cleared key of the given words, and writes each
// cell's group to ids. It returns the number of groups and their keys,
// cut from the scratch, with group order key order.
//
// The cells are in key order, so when the retained members come first —
// all of them, or all but the last few, the common cases — the
// projection never falls and a group is a run of cells. Otherwise a hash
// pass over the cells numbers the groups.
func (sc *scratch) group(n, words int, project func(i int, to []uint64), ids []int32) (int, []uint64) {
	keys := sc.gkeys[:0] // group g: keys[g*words : (g+1)*words]
	groups := 0
	for i := range n {
		keys = slices.Grow(keys, words)[:(groups+1)*words]
		key := keys[groups*words:]
		clear(key)
		project(i, key)
		if groups > 0 {
			switch slices.Compare(keys[(groups-1)*words:groups*words], key) {
			case 0:
				ids[i] = int32(groups - 1)
				continue
			case 1:
				sc.gkeys = keys
				return sc.hashGroup(n, words, project, ids)
			}
		}
		ids[i] = int32(groups)
		groups++
	}
	sc.gkeys = keys
	out := sc.u64.take(groups * words)
	copy(out, keys)
	return groups, out
}

func hashKey(key []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h * 0x9E3779B97F4A7C15
}

// hashGroup is group by one hash pass over the cells, which assigns ids
// in first-seen order, and a sort that renumbers them in key order.
func (sc *scratch) hashGroup(n, words int, project func(i int, to []uint64), ids []int32) (int, []uint64) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	sc.gslots = reuse(sc.gslots, size, math.MaxInt32) // junk that indexes past every group
	clear(sc.gslots)
	shift, mask := uint(64-bits.TrailingZeros(uint(size))), size-1
	keys := sc.gkeys[:0]
	key := func(g int32) []uint64 { return keys[int(g)*words : (int(g)+1)*words] }
	for i := range n {
		at := len(keys)
		keys = slices.Grow(keys, words)[:at+words]
		k := keys[at:]
		clear(k)
		project(i, k)
		for s := int(hashKey(k) >> shift); ; s = (s + 1) & mask {
			g := sc.gslots[s] - 1
			if g < 0 {
				sc.gslots[s] = int32(at/words + 1)
				ids[i] = int32(at / words)
				break
			}
			if slices.Equal(key(g), k) {
				keys = keys[:at]
				ids[i] = g
				break
			}
		}
	}
	sc.gkeys = keys
	groups := len(keys) / words
	sc.perm = reuse(sc.perm, 2*groups, -1)
	order, rank := sc.perm[:groups], sc.perm[groups:]
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(key(a), key(b)) })
	out := sc.u64.take(groups * words)
	for j, g := range order {
		rank[g] = int32(j)
		copy(out[j*words:], key(g))
	}
	for i, g := range ids {
		ids[i] = rank[g]
	}
	return groups, out
}

// bestChoices fills the round's best-choice table: for every deliverable
// pin tuple, in ascending index order, it enumerates transformation
// options × implementations once (Equation (2) without the parents' base
// cost) and keeps the choices that can win a cell under some base cost.
// Implementation evaluations are memoized per delivered-format
// combination for the round; they are what Stats.CandidatesEvaluated
// counts.
//
// A cell's cost is (base + trCost) + implCost in floating point, which is
// monotone in both terms, so a candidate is dropped exactly when an
// earlier candidate for the same cell has trCost and implCost both no
// larger: it would lose or tie — and a tie goes to the earlier — whatever
// the base. Choices of one tuple are grouped by output cell, in
// enumeration order within a cell, which makes "lowest choice index" the
// tie order of a serial scan over (pin tuples ascending, enumeration
// order).
func (s *Session) bestChoices(r *round, sc *scratch, ids *formatIDs, tuples []int32, evals int) error {
	env, x := s.env, r.x
	v := x.v
	nargs := len(v.Ins)
	impls := env.Impls[v.Op.Kind]
	// The evaluations of code c are evaluated[c*len(impls):][:len(impls)],
	// valid once done[c] is set.
	sc.evals = reuse(sc.evals, evals*len(impls), implEval{cost: math.NaN(), outID: 0xff, ok: true})
	sc.done = reuse(sc.done, evals, true)
	evaluated, done := sc.evals, sc.done
	clear(done)

	// The candidates kept for the current tuple, chained per output cell.
	type candidate struct {
		choice
		prev int // previous candidate of the same cell, +1
	}
	var (
		cands     []candidate
		candEdges []EdgeChoice
		head      [256]int // output cell → its last candidate, +1
		order     []int
		ins       = vertexInputs(v) // v's arguments in the delivered formats rec is at
		cur       = make([]EdgeChoice, nargs)
		opts      = make([][]argOption, nargs)
	)
	var rec func(j int, trCost float64, code int)
	rec = func(j int, trCost float64, code int) {
		if j < nargs {
			for k := range opts[j] {
				o := &opts[j][k]
				ins[j].Format = o.pout
				cur[j] = EdgeChoice{Trans: o.tr, Cost: o.cost}
				rec(j+1, trCost+o.cost, code+o.delivered*r.delivered[j])
			}
			return
		}
		evs := evaluated[code*len(impls) : (code+1)*len(impls)]
		if !done[code] {
			for ii, im := range impls {
				ev := &evs[ii]
				ev.out, ev.cost, ev.ok = env.applyInputs(v, im, ins)
				ev.outID = ids.ids[ev.out] // applyInputs only lets formats of env.Formats through
			}
			done[code] = true
			s.stats.CandidatesEvaluated += int64(len(impls))
		}
	nextImpl:
		for ii := range evs {
			ev := &evs[ii]
			if !ev.ok {
				continue
			}
			cell := 0
			if r.vWord >= 0 {
				cell = int(ev.outID)
			}
			for k := head[cell]; k != 0; k = cands[k-1].prev {
				if c := &cands[k-1]; c.trCost <= trCost && c.implCost <= ev.cost {
					continue nextImpl
				}
			}
			cands = append(cands, candidate{
				choice: choice{
					outBits:  uint64(cell) << r.vShift,
					trCost:   trCost,
					implCost: ev.cost,
					out:      ev.out,
					im:       impls[ii],
				},
				prev: head[cell],
			})
			candEdges = append(candEdges, cur...)
			head[cell] = len(cands)
		}
	}

	for _, t := range tuples {
		if s.ctx.Err() != nil {
			return s.ctxErr()
		}
		for a := range opts {
			opts[a] = r.pins[a][int(t/r.weight[a])%len(r.pins[a])]
		}
		cands, candEdges, order = cands[:0], candEdges[:0], order[:0]
		rec(0, 0, 0)
		for i := range cands {
			order = append(order, i)
			head[cands[i].outBits>>r.vShift] = 0
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cands[a].outBits, cands[b].outBits) })
		lo := len(x.choices)
		for _, i := range order {
			x.choices = append(x.choices, cands[i].choice)
			x.edges = append(x.edges, candEdges[i*nargs:(i+1)*nargs]...)
		}
		r.spans[t] = span{int32(lo), int32(len(x.choices))}
	}
	return nil
}

// run walks the round's combos — on up to len(tables) goroutines when
// there are enough of them — and returns the table of winning cells.
// Chunks cover contiguous combo ranges, each into a table of its own, and
// fold slot by slot in chunk order; since a cell's winner is its minimum
// under (cost, choice index), the fold equals the serial walk.
func (r *round) run(ctx context.Context, tables []cellTable) *cellTable {
	workers := min(len(tables), r.combos)
	if r.combos < 16 {
		workers = 1
	}
	chunk := func(w int) {
		lo, hi := w*r.combos/workers, (w+1)*r.combos/workers
		tables[w].reset(r.slots, len(r.x.args))
		r.walk(ctx, lo, hi, &tables[w])
	}
	t := &tables[0]
	if workers == 1 {
		chunk(0)
		return t
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			chunk(w)
		}()
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		o := &tables[w]
		for s, ch := range o.choice {
			if ch >= 0 {
				t.offer(s, o.cost[s], ch, o.parent[s*o.nargs:(s+1)*o.nargs])
			}
		}
	}
	return t
}

// walk offers the cells reachable from combos [lo, hi) — combo c picks
// one cell of every consumed class, the last class varying fastest — to
// the table: per combo and output cell, the cheapest choice of the
// combo's pin tuple on top of the picked cells' summed cost. The context
// is polled every 16 combos.
func (r *round) walk(ctx context.Context, lo, hi int, t *cellTable) {
	x := r.x
	at := make([]int32, len(x.args)) // the picked cell of each class
	for k, rest := len(x.args)-1, lo; k >= 0; k-- {
		n := x.args[k].len()
		at[k], rest = int32(rest%n), rest/n
	}
	for c := lo; c < hi; c++ {
		if c&15 == 0 && ctx.Err() != nil {
			return
		}
		var base float64
		tuple, slot := int32(0), int32(0)
		for k, i := range at {
			base += x.args[k].cost[i]
			tuple += r.pinPart[k][i]
			slot += r.group[k][i] * r.stride[k]
		}
		sp := r.spans[tuple]
		for ch := sp.lo; ch < sp.hi; {
			out := x.choices[ch].outOf
			best, bestCost := ch, base+x.choices[ch].trCost+x.choices[ch].implCost
			for ch++; ch < sp.hi && x.choices[ch].outOf == out; ch++ {
				if total := base + x.choices[ch].trCost + x.choices[ch].implCost; total < bestCost {
					best, bestCost = ch, total
				}
			}
			t.offer(int(slot+out), bestCost, best, at)
		}
		for k := len(at) - 1; k >= 0; k-- {
			if at[k]++; int(at[k]) < x.args[k].len() {
				break
			}
			at[k] = 0
		}
	}
}
