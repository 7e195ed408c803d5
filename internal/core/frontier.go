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
// offers each new cell the cheapest such choice. DESIGN.md §7 has the
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

// cellTable collects the winners of one round: an open-addressing hash
// from key to cell over the same flat arrays a class has. A cell is won
// by the lowest cost and, at equal cost, the lowest choice index — a rule
// that does not depend on the order offers arrive in.
type cellTable struct {
	words, nargs int
	slots        []int32 // cell index + 1; 0 is empty
	shift        uint    // 64 − log2(len(slots))
	keys         []uint64
	cost         []float64
	choice       []int32
	parent       []int32
}

// reset empties the table for a round whose keys have the given width,
// with room for hint cells; the arrays of earlier rounds and searches are
// reused.
func (t *cellTable) reset(words, nargs, hint int) {
	size := 16
	for size < 2*hint {
		size *= 2
	}
	t.emptySlots(size)
	t.words, t.nargs = words, nargs
	t.keys = slices.Grow(t.keys[:0], hint*words)
	t.cost = slices.Grow(t.cost[:0], hint)
	t.choice = slices.Grow(t.choice[:0], hint)
	t.parent = slices.Grow(t.parent[:0], hint*nargs)
}

func hashKey(key []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h * 0x9E3779B97F4A7C15
}

func (t *cellTable) key(i int) []uint64 { return t.keys[i*t.words : (i+1)*t.words] }

// offer proposes (cost, choice, parents) for the cell with the given key.
func (t *cellTable) offer(key []uint64, cost float64, choice int32, parents []int32) {
	mask := len(t.slots) - 1
	for s := int(hashKey(key) >> t.shift); ; s = (s + 1) & mask {
		at := int(t.slots[s]) - 1
		if at < 0 {
			t.slots[s] = int32(len(t.cost) + 1)
			t.keys = append(t.keys, key...)
			t.cost = append(t.cost, cost)
			t.choice = append(t.choice, choice)
			t.parent = append(t.parent, parents...)
			if 2*len(t.cost) > len(t.slots) {
				t.grow()
			}
			return
		}
		if slices.Equal(t.key(at), key) {
			if cost < t.cost[at] || cost == t.cost[at] && choice < t.choice[at] {
				t.cost[at], t.choice[at] = cost, choice
				copy(t.parent[at*t.nargs:], parents)
			}
			return
		}
	}
}

// emptySlots makes the hash size slots, all empty.
func (t *cellTable) emptySlots(size int) {
	t.slots = reuse(t.slots, size, math.MaxInt32) // junk that indexes past every cell
	clear(t.slots)
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
}

func (t *cellTable) grow() {
	t.emptySlots(2 * len(t.slots))
	mask := len(t.slots) - 1
	for i := range t.cost {
		s := int(hashKey(t.key(i)) >> t.shift)
		for t.slots[s] != 0 {
			s = (s + 1) & mask
		}
		t.slots[s] = int32(i + 1)
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

// class turns the table into a frontier class: cells in ascending key
// order, beam-limited to the cheapest beam of them (see
// Env.MaxClassEntries). It reports how many cells the beam dropped. Ties
// at the cut are broken on the key, so pruning is deterministic. The
// class's cells are cut from the scratch.
func (t *cellTable) class(sc *scratch, members []int, from *expansion, beam int) (*fclass, int) {
	n, w := len(t.cost), t.words
	sc.order = reuse(sc.order, n, -1)
	order := sc.order // cell indices, ascending by key
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(t.key(int(a)), t.key(int(b))) })
	pruned := 0
	if n > beam {
		// The cheapest beam cells by (cost, key): every cell below the
		// beam-th smallest cost, then cells at that cost in key order.
		sc.costs = reuse(sc.costs, n, math.NaN())
		copy(sc.costs, t.cost)
		cut := kthSmallest(sc.costs, beam-1)
		atCut := beam
		for _, c := range t.cost {
			if c < cut {
				atCut--
			}
		}
		order = slices.DeleteFunc(order, func(i int32) bool {
			if t.cost[i] == cut {
				atCut--
				return atCut < 0
			}
			return t.cost[i] > cut
		})
		pruned = n - beam
	}
	c := &fclass{
		members: members,
		words:   w,
		keys:    sc.u64.take(len(order) * w),
		cost:    sc.f64.take(len(order)),
		from:    from,
		choice:  sc.i32.take(len(order)),
		parent:  sc.i32.take(len(order) * t.nargs),
	}
	for i, at := range order {
		copy(c.keys[i*w:], t.key(int(at)))
		c.cost[i] = t.cost[at]
		c.choice[i] = t.choice[at]
		copy(c.parent[i*t.nargs:], t.parent[int(at)*t.nargs:(int(at)+1)*t.nargs])
	}
	return c, pruned
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
	var rspan *obs.Span // current frontier.round; ended by the defer on error paths
	sc := takeScratch()
	defer func() {
		sc.giveBack()
		s.finish(ann, start)
		rspan.End()
		fspan.SetInt("classes", int64(s.stats.ClassesExpanded)).
			SetInt("candidates", s.stats.CandidatesEvaluated).
			SetInt("pruned", int64(s.stats.EntriesPruned)).
			End()
	}()
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
		if len(table.cost) == 0 {
			return nil, ErrInfeasible
		}
		class, pruned := table.class(sc, newMembers, r.x, beam)
		s.stats.EntriesPruned += pruned
		rspan.SetInt("combos", int64(r.combos)).SetInt("entries", int64(class.len()))

		for _, c := range argClasses {
			removeClass(c)
		}
		addClass(class)
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

// round is the working state of one expansion: where each consumed cell's
// formats land in the new key and in the pin tuple, and which choices
// each pin tuple has. It is read-only once built, so the walk can fan
// out.
type round struct {
	x      *expansion
	combos int // Π len(args[k]): the cross product the walk covers
	words  int // key words of the class being built
	vWord  int // word and shift of v's own key byte; vWord is −1 when v leaves the frontier at once
	vShift uint
	// Per consumed class and cell: the retained members' formats at their
	// positions in the new key, and the cell's share of the pin-tuple index.
	contrib [][]uint64
	pinPart [][]int32
	spans   []span // pin-tuple index → its range of x.choices
	cells   int    // most output cells any pin tuple's choices reach

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
		contrib:   make([][]uint64, len(args)),
		pinPart:   make([][]int32, len(args)),
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

	// Each consumed cell's contribution to the new key and to the pin
	// tuple. The pin tuples the classes can deliver are the sums of one
	// share per class.
	deliverable := []int32{0}
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
		contrib := sc.u64.take(c.len() * r.words)
		clear(contrib)
		part := sc.i32.take(c.len())
		sc.seen = reuse(sc.seen, int(tuples), true)
		seen := sc.seen
		clear(seen)
		var shares []int32
		for i := range part {
			key := c.keys[i*c.words : (i+1)*c.words]
			to := contrib[i*r.words : (i+1)*r.words]
			for _, m := range keep {
				to[m.toWord] |= (key[m.word] & m.mask) << m.left >> m.right
			}
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
		r.contrib[k], r.pinPart[k] = contrib, part
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
	return r, nil
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
		cells := 0
		for i := range cands {
			order = append(order, i)
			if cands[i].prev == 0 {
				cells++
			}
			head[cands[i].outBits>>r.vShift] = 0
		}
		r.cells = max(r.cells, cells)
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
// Chunks cover contiguous combo ranges and fold in chunk order; since a
// cell's winner is its minimum under (cost, choice index), the fold
// equals the serial walk.
func (r *round) run(ctx context.Context, tables []cellTable) *cellTable {
	workers := min(len(tables), r.combos)
	if r.combos < 16 {
		workers = 1
	}
	chunk := func(w int) {
		lo, hi := w*r.combos/workers, (w+1)*r.combos/workers
		tables[w].reset(r.words, len(r.x.args), min((hi-lo)*r.cells, 1<<16))
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
		for i := range o.cost {
			t.offer(o.key(i), o.cost[i], o.choice[i], o.parent[i*o.nargs:(i+1)*o.nargs])
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
	key := make([]uint64, r.words)
	for c := lo; c < hi; c++ {
		if c&15 == 0 && ctx.Err() != nil {
			return
		}
		var base float64
		tuple := int32(0)
		clear(key)
		for k, i := range at {
			base += x.args[k].cost[i]
			tuple += r.pinPart[k][i]
			for w := range key {
				key[w] |= r.contrib[k][int(i)*r.words+w]
			}
		}
		var kv uint64
		if r.vWord >= 0 {
			kv = key[r.vWord]
		}
		sp := r.spans[tuple]
		for ch := sp.lo; ch < sp.hi; {
			cell := x.choices[ch].outBits
			best, bestCost := ch, base+x.choices[ch].trCost+x.choices[ch].implCost
			for ch++; ch < sp.hi && x.choices[ch].outBits == cell; ch++ {
				if total := base + x.choices[ch].trCost + x.choices[ch].implCost; total < bestCost {
					best, bestCost = ch, total
				}
			}
			if r.vWord >= 0 {
				key[r.vWord] = kv | cell
			}
			t.offer(key, bestCost, best, at)
		}
		for k := len(at) - 1; k >= 0; k-- {
			if at[k]++; int(at[k]) < x.args[k].len() {
				break
			}
			at[k] = 0
		}
	}
}
