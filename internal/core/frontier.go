package core

import (
	"cmp"
	"context"
	"math"
	"math/bits"
	"slices"
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
// class keeps no key per cell: it keeps the keys of its round's groups
// and output cells as parts, and each cell which entry of each part it is
// made of. One pass over each consumed class's cells, through its parts,
// numbers the cells into groups by their retained formats and records
// each cell's share of the pin tuple (newRound, layout). The best-choice
// table (bestChoices) then decides, once per tuple of formats the
// arguments can arrive in, which (transformations, implementation)
// choices can win a cell at all. The walk (round.walk) streams the
// consumed class of the most groups group by group: each of its cells,
// crossed with the other classes' cells, offers every output format the
// cheapest such choice in a small table over the other classes' groups
// and v's output cells, and when the walk leaves a group that table's
// cells are written out, each with its groups and output cell as its
// entries. A cell goes to the least (cost, choice index), and no two
// offers for a cell tie on both, so the visiting order does not change
// it. The written cells are sorted if they must be, cut to the beam and
// copied into the new class.
// DESIGN.md §7 has the layout.

// formatIDs gives every format one Frontier run can meet a dense byte
// id, so cost-table keys are integers. Ids are assigned once, serially
// and in a fixed order (the environment's universe, the source formats in
// vertex order, the transformation targets), before the first round; the
// run only reads them afterwards.
type formatIDs struct {
	ids      map[format.Format]uint8
	formats  []format.Format
	universe []uint8 // the id of env.Formats[i]
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
	for _, f := range env.Formats {
		in.universe = append(in.universe, in.ids[f])
	}
	return in, nil
}

// A cell's key is the formats of its class's members: one id byte each,
// in member order, packed big-endian into ⌈members/8⌉ uint64 words.
// Comparing two keys of a class word by word therefore compares the
// member formats lexicographically by id. keyPos returns the word and the
// shift of the key byte of member position p.
func keyPos(p int) (word int, shift uint) { return p >> 3, uint(56 - 8*(p&7)) }

// cells are cost-table cells in flat, pointer-free arrays. A cell is
// F(V, p) plus its back-pointers: which choice of the expansion that built
// it produced it and from which cell of each class that expansion
// consumed, and which entry of each of its class's parts its key is made
// of.
type cells struct {
	nargs  int       // parents per cell
	cost   []float64 // cell i: F(V, p)
	choice []int32   // cell i: index into the expansion's choices
	parent []int32   // cell i: parent[i*nargs+k] indexes the k-th consumed class
	entry  []int32   // cell i: entry[i*(nargs+1)+k] is its entry of part k (see parts)
}

func (c *cells) len() int { return len(c.cost) }

func (c *cells) truncate(n int) {
	c.cost, c.choice, c.parent, c.entry = c.cost[:n], c.choice[:n], c.parent[:n*c.nargs], c.entry[:n*(c.nargs+1)]
}

// copyCells copies the cells of src to the front of dst.
func copyCells(dst, src cells) {
	copy(dst.cost, src.cost)
	copy(dst.choice, src.choice)
	copy(dst.parent, src.parent)
	copy(dst.entry, src.entry)
}

// copyTo writes cell i of c as cell n of d.
func (c *cells) copyTo(d *cells, n, i int) {
	k, e := c.nargs, c.nargs+1
	d.cost[n], d.choice[n] = c.cost[i], c.choice[i]
	copy(d.parent[n*k:(n+1)*k], c.parent[i*k:(i+1)*k])
	copy(d.entry[n*e:(n+1)*e], c.entry[i*e:(i+1)*e])
}

// parts are a class's keys as the round that built it made them: part k
// below the last holds the keys of the groups of the k-th class the round
// consumed, the last part the keys of the round's output cells (v's byte
// alone), each in the class's layout and words long. The consumed
// classes' retained members are disjoint, so a cell's key is the keys of
// its entries ORed: its parents' groups and its output cell.
type parts struct {
	words int        // key words
	keys  [][]uint64 // part → its entries' keys: entry e is keys[e*words : (e+1)*words]
}

// key writes to key the key of the cell of the given entries, one per
// part.
func (p *parts) key(key []uint64, entries []int32) {
	w := p.words
	key = key[:w]
	for k, e := range entries {
		src := p.keys[k][int(e)*w : int(e+1)*w]
		if k == 0 {
			for j, x := range src {
				key[j] = x
			}
			continue
		}
		for j, x := range src {
			key[j] |= x
		}
	}
}

// fclass is one equivalence class along the frontier with its joint cost
// table, its cells in ascending key order. A cell keeps no key: the class
// keeps its round's group and output keys as parts, and the cell which of
// them it is made of. The member formats, argument pins, transformations
// and implementation are read back through the cells' back-pointers at
// backtrack time.
type fclass struct {
	members []int      // sorted vertex IDs still on the frontier
	from    *expansion // the round that built the cells
	parts
	cells
}

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

// groupTable collects the winners of one group of the streamed class, one
// slot per group of the other class and output cell (see round).
type groupTable []slot

type slot struct {
	cost   float64
	choice int32 // −1: the slot is empty
	cell   int32 // the streamed class's cell
	other  int32 // the other class's cell
}

// offer proposes for slot s the cell that choice builds at cost on cells i
// of the streamed class and j of the other. A cell goes to the lowest
// cost, then the lowest choice index. No two offers to a slot tie on both:
// the slot fixes the retained formats of the consumed cells, the choice
// fixes the formats of v's arguments, and every member of a consumed
// class is retained or an argument of v, so one (slot, choice) names one
// pair of parents. The winner therefore does not depend on the order
// offers arrive in.
func offer(t groupTable, s int, cost float64, choice, i, j int32) {
	if e := &t[s]; e.choice < 0 || cost < e.cost || cost == e.cost && choice < e.choice {
		e.cost, e.choice, e.cell, e.other = cost, choice, i, j
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

// cut keeps, in place and in order, the cheapest beam of c's cells, which
// are in key order (see Env.MaxClassEntries): every cell below the
// beam-th smallest cost, then the first cells at that cost, so ties at the
// cut break on the key. It reports how many cells it dropped.
func (c *cells) cut(sc *scratch, beam int) int {
	n := c.len()
	if n <= beam {
		return 0
	}
	sc.costs = reuse(sc.costs, n, math.NaN())
	copy(sc.costs, c.cost)
	cut := kthSmallest(sc.costs, beam-1)
	atCut := beam // cells at the cut that survive
	for _, x := range c.cost {
		if x < cut {
			atCut--
		}
	}
	kept := 0
	for i, x := range c.cost {
		if x > cut || x == cut && atCut == 0 {
			continue
		}
		if x == cut {
			atCut--
		}
		if kept != i {
			c.copyTo(c, kept, i)
		}
		kept++
	}
	c.truncate(kept)
	return n - kept
}

// class makes the written cells, which the walk left in memory it reuses,
// a frontier class: sorted by key unless r.sorted holds, cut to the beam,
// and copied, with the round's parts, to arrays cut from the scratch. It
// reports how many cells it dropped.
func (r *round) class(sc *scratch, written cells, members []int, beam int) (*fclass, int) {
	if !r.sorted {
		w, n, e := r.words, written.len(), written.nargs+1
		sc.keys = reuse(sc.keys, n*w, math.MaxUint64) // cell i's key: keys[i*w : (i+1)*w]
		key := func(i int32) []uint64 { return sc.keys[int(i)*w : int(i+1)*w] }
		order := reuse(sc.order, n, -1)
		for i := range order {
			order[i] = int32(i)
			r.key(key(int32(i)), written.entry[i*e:(i+1)*e])
		}
		slices.SortFunc(order, func(a, b int32) int { return slices.Compare(key(a), key(b)) })
		sc.order = order
		sc.sorted.reuse(written.nargs, n)
		for j, i := range order {
			written.copyTo(&sc.sorted, j, int(i))
		}
		written = sc.sorted
	}
	pruned := written.cut(sc, beam)
	c := &fclass{members: members, from: r.x, parts: parts{r.words, make([][]uint64, len(r.keys))}, cells: sc.cells(written.nargs, written.len())}
	copyCells(c.cells, written)
	for k, keys := range r.keys {
		c.keys[k] = sc.u64.take(len(keys))
		copy(c.keys[k], keys)
	}
	return c, pruned
}

// Frontier runs the Frontier DP with a fresh uncancellable session; see
// Session.Frontier.
func Frontier(g *Graph, env *Env) (*Annotation, error) {
	return NewSession(nil, env).Frontier(g)
}

// Frontier computes the optimal annotation of a general compute DAG,
// one round per vertex on the calling goroutine. A cell's winner is
// defined by (cost, choice index), not by arrival order, so the plan and
// its cost do not depend on which consumed class a round streams. The
// search's working memory is one scratch (scratch.go), given back on
// every return.
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
			from:    &expansion{v: v},
			parts:   parts{words: 1, keys: [][]uint64{{uint64(ids.ids[v.SrcFormat]) << shift}}},
			cells:   cells{cost: []float64{0}, entry: []int32{0}},
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
		written := r.walk(s.ctx, sc)
		if err := s.ctxErr(); err != nil {
			return nil, err
		}
		class, pruned := r.class(sc, written, newMembers, beam)
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
// lands in the new key and in the pin tuple, which choices each pin tuple
// has, and how the walk streams one consumed class. It is read-only once
// built.
//
// A consumed class's cells fall into groups by their retained members'
// formats, numbered in key order. The classes' retained members are
// disjoint, so a group of every consumed class and an output cell make
// one key of the class being built: the groups' keys ORed, plus v's byte.
// Those keys are the new class's parts; the walk writes no key.
type round struct {
	x      *expansion
	combos int // Π len(args[k]): the cross product the walk covers
	vWord  int // word and shift of v's own key byte; vWord is −1 when v leaves the frontier at once
	vShift uint
	in     []*consumed // per consumed class, its layout
	parts              // per consumed class its groups' keys, then the output cells' keys
	outs   int         // output cells
	sorted bool        // at most one consumed class has several groups: the walk writes in key order
	spans  []span      // pin-tuple index → its range of x.choices

	// The walk streams consumed class s in group order. o is the other
	// consumed class, −1 when v consumes one. A group table slot is o's
	// group · output cells + output cell.
	s, o, slots int

	// What bestChoices enumerates. A pin tuple's index is the format ids
	// its arguments arrive in, as digits in radix len(ids.formats) with
	// argument 0 most significant: ascending index is ascending
	// lexicographic order of the ids.
	weight    []int32         // argument → weight of its digit
	pins      [][][]argOption // argument → pin's format id → transformation options; nil if never delivered
	delivered []int           // argument → weight of its delivered format in the evaluation index
}

type span struct{ lo, hi int32 }

// outEntry is what a round reads off an output cell of a consumed class.
type outEntry struct{ share, rank int32 }

// consumed is how a round lays out a class it consumes: per cell its
// group and its share of the pin-tuple index, per group the retained
// members' formats at their positions in the new key — the part of the
// new class that holds them, which class copies — and the visit: the
// cells in group order, group g holding positions start[g] to start[g+1]
// of order. The arrays are the scratch's, reused round after round.
type consumed struct {
	group, pinPart []int32
	gkeys          []uint64
	order, start   []int32
	byGroup        []int32 // order, when the groups are not runs
}

// moves is how a round reads a class it consumes. Retained members' key
// bytes move into the new key; members that share the source word, the
// destination word and the shift distance move as one masked word.
// Arguments' key bytes, their format ids, are weighted into the pin
// tuple.
type moves struct {
	keep []wordMove
	pin  []pinMove
}

type wordMove struct {
	word, toWord int
	mask         uint64 // the source word's bytes that move
	left, right  uint   // the shift distance; one of them is 0
}

// project ORs the retained bytes of key, in the consumed class's layout,
// into to, in the new class's. Every shift is below 64; masking it says
// so to the compiler, which then emits a bare shift.
func (mv *moves) project(key, to []uint64) {
	for _, m := range mv.keep {
		to[m.toWord] |= (key[m.word] & m.mask) << (m.left & 63) >> (m.right & 63)
	}
}

// pinMove adds an argument's key byte, its format id, weighted to the pin
// tuple.
type pinMove struct {
	word   int
	shift  uint
	weight int32
}

// pinShare returns a key's share of the pin tuple. Every shift is below
// 64; masking it says so to the compiler, which then emits a bare shift.
func pinShare(key []uint64, pin []pinMove) int32 {
	share := int32(0)
	for _, m := range pin {
		share += int32(key[m.word]>>(m.shift&63)&0xff) * m.weight
	}
	return share
}

// read makes mv how the round of vertex v, building a class of the
// given members, reads class c.
func (mv *moves) read(c *fclass, members []int, v *Vertex, weight []int32) {
	mv.keep, mv.pin = mv.keep[:0], mv.pin[:0]
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
			if n := len(mv.keep) - 1; n >= 0 && mv.keep[n].word == m.word && mv.keep[n].toWord == m.toWord &&
				mv.keep[n].left == m.left && mv.keep[n].right == m.right {
				mv.keep[n].mask |= m.mask
			} else {
				mv.keep = append(mv.keep, m)
			}
		}
		for a, in := range v.Ins {
			if in.ID == id {
				mv.pin = append(mv.pin, pinMove{word: w, shift: sh, weight: weight[a]})
			}
		}
	}
}

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
		vWord:     -1,
		in:        make([]*consumed, len(args)),
		parts:     parts{words: max(1, (len(members)+7)/8), keys: make([][]uint64, len(args)+1)}, // a class without members keeps one zero word
		weight:    make([]int32, nargs),
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
	if len(args) > 2 {
		return nil, internalf("v%d consumes %d classes; an op takes at most two arguments", v.ID, len(args))
	}
	for len(sc.pins) < nargs {
		sc.pins = append(sc.pins, nil)
	}
	r.pins = sc.pins[:nargs]
	// Only the deliverable tuples' spans are written, and only they are read.
	sc.spans = reuse(sc.spans, int(tuples), span{-1, -1})
	r.spans = sc.spans

	// Each consumed cell's group and its share of the pin tuple, from one
	// pass over its class's parts and one over its cells. The pin tuples
	// the classes can deliver are the sums of one share per class.
	deliverable := []int32{0}
	sc.seen = reuse(sc.seen, int(tuples), true)
	for k, c := range args {
		r.combos *= c.len()
		mv := &sc.mv
		mv.read(c, members, v, r.weight)
		in := &sc.in[k]
		r.in[k] = in
		in.group, in.pinPart = reuse(in.group, c.len(), -1), reuse(in.pinPart, c.len(), -1)
		sc.layout(in, c, mv, r.words)
		r.keys[k] = in.gkeys
		seen := sc.seen
		clear(seen)
		var shares []int32 // the distinct shares, as first met
		for _, share := range in.pinPart {
			if !seen[share] {
				seen[share] = true
				shares = append(shares, share)
			}
		}
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
		r.pins[a] = reuse(r.pins[a], int(radix), nil)
		clear(r.pins[a])
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
	r.outs = int(outs)
	w, vw := r.words, max(r.vWord, 0) // v's byte of a key is 0 when v leaves the frontier at once
	sc.outKeys = reuse(sc.outKeys, r.outs*w, math.MaxUint64)
	clear(sc.outKeys)
	r.keys[len(args)] = sc.outKeys
	for id, o := range outOf {
		if o != 0 {
			sc.outKeys[int(o-1)*w+vw] = uint64(id) << r.vShift
		}
	}
	for i := range r.x.choices {
		ch := &r.x.choices[i]
		ch.outOf = outOf[ch.outBits>>r.vShift] - 1
	}
	// With at most one class of several groups the walk writes cells in
	// (group, output cell) order, which is key order: v has the largest ID
	// among the members, so its byte is the key's least significant.
	cellsMax, several, widest := int(outs), 0, 0
	for k, c := range args {
		groups := len(r.in[k].start) - 1
		if groups > 1 {
			several++
		}
		if cellsMax > math.MaxInt32/groups {
			return nil, internalf("the class built at v%d has more than 2^31 possible cells", v.ID)
		}
		cellsMax *= groups
		if wg := len(r.in[widest].start) - 1; groups > wg || groups == wg && c.len() > args[widest].len() {
			widest = k
		}
	}
	r.sorted = several <= 1
	r.stream(widest)
	return r, nil
}

// cursor reads the cells of a consumed class in order through its parts.
// A cell's share of the pin tuple is the sum of its entries' shares and
// its retained formats are their retained formats ORed. An output cell's
// are read off small tables made once per class; a group part's are
// projected when a cell's entry of that part differs from the cell's
// before, which in the common case — a class built from one consumed
// class, whose cells come in runs of one group — is once per run.
type cursor struct {
	mv      *moves
	nargs   int
	entry   []int32     // the class's cells' entries
	keys    [2][]uint64 // per group part, its entries' keys
	cw      int         // the class's key words
	outProj []uint64    // per output cell, its retained formats in the new key
	outs    []outEntry  // per output cell, its share of the pin tuple and the rank of its retained formats
	at      [2]int32    // per group part, the entry of the cell last read
	proj    [2][]uint64 // per group part, at's retained formats in the new key
	share   [2]int32    // per group part, at's share of the pin tuple
	out     int32       // the output cell of the cell last read
	words   int         // of the new key
}

// cursor readies sc's cursor to read c, which the round reads as mv.
func (sc *scratch) cursor(c *fclass, mv *moves, words int) *cursor {
	cu, cw, nargs := &sc.cur, c.words, c.nargs
	outs := len(c.keys[nargs]) / cw
	sc.outProj = reuse(sc.outProj, outs*words, math.MaxUint64)
	sc.outs = reuse(sc.outs, outs, outEntry{-1, -1})
	clear(sc.outProj)
	*cu = cursor{mv: mv, nargs: nargs, entry: c.entry, cw: cw, outProj: sc.outProj, outs: sc.outs, at: [2]int32{-1, -1}, words: words}
	for o := range outs {
		key, to := c.keys[nargs][o*cw:(o+1)*cw], cu.outProj[o*words:(o+1)*words]
		mv.project(key, to)
		cu.outs[o] = outEntry{pinShare(key, mv.pin), 0}
		if o > 0 {
			cu.outs[o].rank = cu.outs[o-1].rank
			if compareWords(cu.outProj[(o-1)*words:o*words], to) != 0 {
				cu.outs[o].rank++
			}
		}
	}
	for k := range nargs {
		cu.keys[k] = c.keys[k]
		sc.partProj[k] = reuse(sc.partProj[k], words, math.MaxUint64)
		cu.proj[k] = sc.partProj[k]
	}
	return cu
}

// move makes entry g of group part k the one the cursor holds.
func (cu *cursor) move(k int, g int32) {
	key := cu.keys[k][int(g)*cu.cw : int(g+1)*cu.cw]
	clear(cu.proj[k])
	cu.mv.project(key, cu.proj[k])
	cu.at[k], cu.share[k] = g, pinShare(key, cu.mv.pin)
}

// retained writes to to the retained formats, in the new key, of the cell
// last read.
func (cu *cursor) retained(to []uint64) {
	w := cu.words
	to = to[:w]
	for j, x := range cu.outProj[int(cu.out)*w : int(cu.out+1)*w] {
		to[j] = x
	}
	for _, p := range cu.proj[:cu.nargs] {
		for j, x := range p[:w] {
			to[j] |= x
		}
	}
}

// layout numbers the cells of c, a class the round consumes, into groups
// by their retained formats (in.group), writes each cell's share of the
// pin tuple to in.pinPart, and lays out the groups' keys and the visit in
// in. It reads c in one pass through a cursor; no cell key is read. A
// cell's share is its output cell's plus its group entries', and its
// retained formats can differ from the cell's before only where an entry
// does, so only there are they ORed up and compared. Retained members
// keep their order, so retained formats compare as the new keys they
// project to do. While they never fall along the cells — the common case
// — each change starts a group, the groups are runs of cells and the
// visit is cell order. From the first fall on, a hash table of the groups
// met numbers them, and sortGroups renumbers them in key order.
func (sc *scratch) layout(in *consumed, c *fclass, mv *moves, words int) {
	cu := sc.cursor(c, mv, words)
	ids, shares, n := in.group, in.pinPart, len(in.group)
	gkeys := slices.Grow(in.gkeys[:0], (n+1)*words) // group g: gkeys[g*words : (g+1)*words], in the order met
	start := slices.Grow(in.start[:0], n+1)
	var table []int32 // from the first fall on: hash of group keys → group + 1; 0 is empty
	var shift uint
	nargs, entry, outs := cu.nargs, cu.entry, cu.outs
	g, last := 0, int32(-1) // the groups met, and the rank of the output cell read before
	for i := range n {
		e := entry[i*(nargs+1):][:nargs+1]
		out := e[nargs]
		o := outs[out]
		moved, share := o.rank != last, o.share
		last, cu.out = o.rank, out
		for k, at := range e[:nargs] {
			if at != cu.at[k] {
				cu.move(k, at)
				moved = true
			}
			share += cu.share[k]
		}
		shares[i] = share
		if !moved {
			ids[i] = ids[i-1]
			continue
		}
		gkeys = gkeys[:(g+1)*words]
		key := gkeys[g*words:]
		cu.retained(key)
		if table == nil && g > 0 {
			switch compareWords(gkeys[(g-1)*words:g*words], key) {
			case 0:
				gkeys, ids[i] = gkeys[:g*words], ids[i-1]
				continue
			case 1:
				size := 16
				for size < 2*n {
					size *= 2
				}
				sc.gslots = reuse(sc.gslots, size, math.MaxInt32) // junk that indexes past every group
				table, shift = sc.gslots, uint(64-bits.TrailingZeros(uint(size)))
				clear(table)
				for h := range g {
					for s := int(hashKey(gkeys[h*words:(h+1)*words]) >> shift); ; s = (s + 1) & (size - 1) {
						if table[s] == 0 {
							table[s] = int32(h + 1)
							break
						}
					}
				}
			}
		}
		if table != nil {
			ids[i] = int32(g)
			for s := int(hashKey(key) >> shift); ; s = (s + 1) & (len(table) - 1) {
				h := table[s] - 1
				if h < 0 {
					table[s] = int32(g + 1)
					break
				}
				if slices.Equal(gkeys[int(h)*words:int(h+1)*words], key) {
					gkeys, ids[i] = gkeys[:g*words], h
					break
				}
			}
			if ids[i] == int32(g) {
				g++
			}
			continue
		}
		ids[i] = int32(g)
		start = append(start, int32(i))
		g++
	}
	in.gkeys = gkeys
	if table != nil {
		sc.sortGroups(in, words)
		return
	}
	for i := len(sc.iota); i < n; i++ {
		sc.iota = append(sc.iota, int32(i))
	}
	in.order, in.start = sc.iota[:n:n], append(start, int32(n))
}

// compareWords compares a and b, which are equally long, word by word.
func compareWords(a, b []uint64) int {
	b = b[:len(a)]
	for j, x := range a {
		if x != b[j] {
			if x < b[j] {
				return -1
			}
			return 1
		}
	}
	return 0
}

func hashKey(key []uint64) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, w := range key {
		h = (h ^ w) * 0x9E3779B97F4A7C15
		h ^= h >> 32
	}
	return h * 0x9E3779B97F4A7C15
}

// sortGroups renumbers the groups of in, whose keys are in the order the
// groups were met, in key order: a sort of the groups, then a stable
// counting sort of the cells by group, which is the visit.
func (sc *scratch) sortGroups(in *consumed, words int) {
	ids, n, met := in.group, len(in.group), in.gkeys
	groups := len(met) / words
	key := func(g int32) []uint64 { return met[int(g)*words : int(g+1)*words] }
	sc.perm = reuse(sc.perm, 2*groups, -1)
	order, rank := sc.perm[:groups], sc.perm[groups:]
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int { return slices.Compare(key(a), key(b)) })
	sorted := reuse(sc.gkeys, groups*words, math.MaxUint64)
	for j, g := range order {
		rank[g] = int32(j)
		copy(sorted[j*words:], key(g))
	}
	in.gkeys, sc.gkeys = sorted, met // the two arrays trade places
	in.start = reuse(in.start, groups+1, -1)
	start := in.start
	clear(start)
	for i, g := range ids {
		ids[i] = rank[g]
		start[rank[g]+1]++
	}
	for g := range groups {
		start[g+1] += start[g]
		order[g] = start[g] // where g's next cell goes
	}
	in.byGroup = reuse(in.byGroup, n, -1)
	for i, g := range ids {
		in.byGroup[order[g]] = int32(i)
		order[g]++
	}
	in.order = in.byGroup
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
				var at int
				ev.out, at, ev.cost, ev.ok = env.applyInputs(v, im, ins)
				if ev.ok {
					ev.outID = ids.universe[at]
				}
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

// stream makes consumed class s the one the walk visits group by group.
func (r *round) stream(s int) {
	r.s, r.o, r.slots = s, 1-s, r.outs
	if len(r.x.args) == 1 {
		r.o = -1
	} else {
		r.slots *= len(r.in[r.o].start) - 1
	}
}

// walk writes the new class's cells, in the streamed class's group order,
// to an array the scratch reuses from round to round, with room for every
// group's slots.
func (r *round) walk(ctx context.Context, sc *scratch) cells {
	all := &sc.written
	all.reuse(len(r.x.args), (len(r.in[r.s].start)-1)*r.slots)
	sc.table = reuse(sc.table, r.slots, slot{math.NaN(), 0, -1, -1})
	all.truncate(r.chunk(ctx, sc.table, all))
	return *all
}

// chunk walks the streamed class's groups in order, writes each group's
// winners to seg as it leaves the group and returns how many cells it
// wrote. A cell, crossed with each cell of the other class, offers every
// output cell the cheapest choice of their pin tuple on top of their
// summed costs. The context is polled every 16 cells.
func (r *round) chunk(ctx context.Context, t groupTable, seg *cells) int {
	x, s, o, outs := r.x, r.s, r.o, int32(r.outs)
	for i := range t {
		t[i].choice = -1
	}
	n, choices, spans, in := 0, x.choices, r.spans, r.in[s]
	costS, partS, others := x.args[s].cost, in.pinPart, 1
	if o >= 0 {
		others = x.args[o].len()
	}
	polls := 0
	for g := range int32(len(in.start) - 1) {
		for j := range int32(others) {
			costO, tuple, slot := 0.0, int32(0), int32(0)
			if o >= 0 {
				costO, tuple, slot = x.args[o].cost[j], r.in[o].pinPart[j], r.in[o].group[j]*outs
			}
			for _, i := range in.order[in.start[g]:in.start[g+1]] {
				if polls++; polls&15 == 0 && ctx.Err() != nil {
					return n
				}
				base := costS[i] + costO // the same bits in either order
				sp := spans[tuple+partS[i]]
				for ch := sp.lo; ch < sp.hi; {
					out := choices[ch].outOf
					best, bestCost := ch, base+choices[ch].trCost+choices[ch].implCost
					for ch++; ch < sp.hi && choices[ch].outOf == out; ch++ {
						if total := base + choices[ch].trCost + choices[ch].implCost; total < bestCost {
							best, bestCost = ch, total
						}
					}
					offer(t, int(slot+out), bestCost, best, i, j)
				}
			}
		}
		n = r.flush(t, g, seg, n)
	}
	return n
}

// flush writes the occupied slots of t, the winners of the streamed
// class's group g, to seg from cell n on, in slot order, each with its
// parents and its entries — g, its other group and its output cell —
// empties them and returns the next cell.
func (r *round) flush(t groupTable, g int32, seg *cells, n int) int {
	outs, rs := r.outs, r.s
	for og := 0; og*outs < len(t); og++ {
		for out, e := range t[og*outs : (og+1)*outs] {
			if e.choice < 0 {
				continue
			}
			seg.cost[n], seg.choice[n] = e.cost, e.choice
			if r.o < 0 {
				seg.parent[n], seg.entry[2*n], seg.entry[2*n+1] = e.cell, g, int32(out)
			} else {
				at, to := seg.parent[2*n:2*n+2], seg.entry[3*n:3*n+3]
				at[rs], at[1-rs] = e.cell, e.other
				to[rs], to[1-rs], to[2] = g, int32(og), int32(out)
			}
			n++
			t[og*outs+out].choice = -1
		}
	}
	return n
}
