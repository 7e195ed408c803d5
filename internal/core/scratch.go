package core

import (
	"math"
	"sync"
	"unsafe"
)

// A Frontier search borrows all of its working memory — the walk's group
// table, the per-round index arrays and the cells and parts of every class
// it builds — from one scratch, and gives it back whole when it returns.
// What a round writes before its class is sorted and cut to the beam
// lives in arrays reused from round to round; only what a class keeps is
// cut from the bump regions, so a search holds that plus one array the
// size of its largest round. Nothing cut from a scratch outlives the
// search: the annotation is written from the expansions' choices and
// edges, which are ordinary heap memory. Idle scratches wait on one
// process-wide free list, so a process that searches again finds its
// tables already allocated. The list is bounded by constants, the way
// netfabric bounds its idle frame buffers; it is not a sync.Pool because
// a collection would empty a pool between a serving process's searches.
const (
	maxIdleScratches = 2        // scratches the free list keeps
	maxScratchBytes  = 64 << 20 // a scratch holding more is dropped, not kept
)

var idleScratches struct {
	sync.Mutex
	list []*scratch
}

// poisoned is set only under the matopt_poison build tag (poison.go).
// Every bump take and every reused scratch array is then filled with junk
// before it is handed out, so a search that reads memory it neither wrote
// nor cleared changes its plan.
var poisoned bool

type scratch struct {
	table    groupTable      // walk: the winners of the group being walked
	written  cells           // walk: the cells a round writes
	in       [2]consumed     // newRound: the layout of each class a round consumes
	mv       moves           // newRound: how a round reads the class it is laying out
	outKeys  []uint64        // newRound: per output cell, its key: v's format at v's key byte
	cur      cursor          // layout: how a consumed class is being read
	outProj  []uint64        // layout: per output cell of a consumed class, its retained formats in the new key
	outs     []outEntry      // layout: per output cell of a consumed class, its pin share and rank
	partProj [2][]uint64     // layout: per group part of a consumed class, the retained formats of its current entry
	iota     []int32         // layout: 0, 1, 2, …: the visit of a class grouped in runs
	keys     []uint64        // class: the written cells' keys, when they must be sorted
	order    []int32         // class: the written cells' indices in key order, when they must be sorted
	sorted   cells           // class: the written cells in key order, when they must be sorted
	costs    []float64       // cut: a copy of the costs, which the selection reorders
	seen     []bool          // newRound: pin-tuple shares already met
	spans    []span          // newRound: pin tuple → its range of choices
	pins     [][][]argOption // newRound: per argument, pin's format id → transformation options
	gslots   []int32         // layout: hash of group keys, group + 1; 0 is empty
	gkeys    []uint64        // layout: the groups' keys in the order they are met
	perm     []int32         // layout: groups in key order, then group → its rank; class: the key sort
	evals    []implEval      // bestChoices: code·len(impls) + impl → its evaluation
	done     []bool          // bestChoices: code → evaluated

	// Class cells and parts are cut from these.
	u64 bump[uint64]
	f64 bump[float64]
	i32 bump[int32]
}

// takeScratch returns an idle scratch, or a new one when none is idle.
func takeScratch() *scratch {
	idleScratches.Lock()
	defer idleScratches.Unlock()
	if n := len(idleScratches.list); n > 0 {
		s := idleScratches.list[n-1]
		idleScratches.list[n-1] = nil
		idleScratches.list = idleScratches.list[:n-1]
		return s
	}
	return &scratch{
		u64: bump[uint64]{junk: math.MaxUint64},
		f64: bump[float64]{junk: math.NaN()},
		i32: bump[int32]{junk: -1},
	}
}

// giveBack returns the scratch to the free list, unless it holds more
// than maxScratchBytes or the list is full. The caller must not use it,
// or anything cut from it, afterwards.
func (s *scratch) giveBack() {
	if s.bytes() > maxScratchBytes {
		return
	}
	for _, p := range s.pins { // the options are the search's, not the scratch's
		clear(p)
	}
	s.u64.rewind()
	s.f64.rewind()
	s.i32.rewind()
	idleScratches.Lock()
	defer idleScratches.Unlock()
	if len(idleScratches.list) < maxIdleScratches {
		idleScratches.list = append(idleScratches.list, s)
	}
}

// bytes is what the scratch holds. A rewind never makes it larger.
func (s *scratch) bytes() int {
	n := int(unsafe.Sizeof(slot{}))*cap(s.table) + s.written.bytes() + s.sorted.bytes() + 8*cap(s.outKeys) + 4*cap(s.iota) + 8*cap(s.keys) + 4*cap(s.order) +
		8*cap(s.costs) + cap(s.seen) + 8*cap(s.spans) + 4*cap(s.gslots) + 8*cap(s.outProj) + 8*cap(s.outs) +
		8*cap(s.gkeys) + 4*cap(s.perm) + int(unsafe.Sizeof(implEval{}))*cap(s.evals) + cap(s.done)
	n += int(unsafe.Sizeof(wordMove{}))*cap(s.mv.keep) + int(unsafe.Sizeof(pinMove{}))*cap(s.mv.pin)
	for _, p := range s.pins {
		n += 24 * cap(p)
	}
	for _, p := range s.partProj {
		n += 8 * cap(p)
	}
	for i := range s.in {
		c := &s.in[i]
		n += 4*(cap(c.group)+cap(c.pinPart)+cap(c.start)+cap(c.byGroup)) + 8*cap(c.gkeys)
	}
	return n + s.u64.bytes() + s.f64.bytes() + s.i32.bytes()
}

// cells cuts n cells of nargs parents each from the bump regions.
func (s *scratch) cells(nargs, n int) cells {
	return cells{nargs, s.f64.take(n), s.i32.take(n), s.i32.take(n * nargs), s.i32.take(n * (nargs + 1))}
}

func (c *cells) bytes() int {
	return 8*cap(c.cost) + 4*(cap(c.choice)+cap(c.parent)+cap(c.entry))
}

// reuse makes c n cells of nargs parents each, reallocating only the
// arrays whose capacity is short. Their contents are undefined (junk under
// matopt_poison).
func (c *cells) reuse(nargs, n int) {
	*c = cells{nargs, reuse(c.cost, n, math.NaN()), reuse(c.choice, n, -1), reuse(c.parent, n*nargs, -1), reuse(c.entry, n*(nargs+1), -1)}
}

// reuse returns n elements of s, reallocating only when its capacity is
// short. Their contents are undefined (junk under matopt_poison).
func reuse[T any](s []T, n int, junk T) []T {
	if cap(s) < n {
		s = make([]T, n)
	}
	s = s[:n]
	if poisoned {
		for i := range s {
			s[i] = junk
		}
	}
	return s
}

// bump cuts arrays from chunks it keeps between searches. A take is
// dirty: its caller clears only what it ORs or sums into.
//
// A new chunk is sized to the take that needs it, so a search on a new
// scratch allocates no more than the arrays it takes, and a repeat of
// the same search fits the same chunks exactly. A search on a reused
// scratch that still needs a new chunk merges all of them, when it ends,
// into one region sized to its total.
type bump[T uint64 | float64 | int32] struct {
	chunks    [][]T
	kept      int // chunks held when the search began
	cur, used int // the chunk being cut, and how much of it is cut
	total     int // elements taken this search
	junk      T   // what a take holds under matopt_poison
}

func (b *bump[T]) take(n int) []T {
	if n == 0 {
		return nil
	}
	for b.cur < len(b.chunks) && b.used+n > len(b.chunks[b.cur]) {
		b.cur, b.used = b.cur+1, 0
	}
	if b.cur == len(b.chunks) {
		b.chunks = append(b.chunks, make([]T, n))
	}
	a := b.chunks[b.cur][b.used : b.used+n : b.used+n]
	b.used += n
	b.total += n
	if poisoned {
		for i := range a {
			a[i] = b.junk
		}
	}
	return a
}

// rewind readies the bump for the next search; every array taken since
// the last rewind is dead.
func (b *bump[T]) rewind() {
	if b.kept > 0 && len(b.chunks) > b.kept {
		b.chunks = [][]T{make([]T, b.total)}
	}
	b.kept, b.cur, b.used, b.total = len(b.chunks), 0, 0, 0
}

func (b *bump[T]) bytes() int {
	n := 0
	for _, c := range b.chunks {
		n += len(c)
	}
	return n * int(unsafe.Sizeof(b.junk))
}
