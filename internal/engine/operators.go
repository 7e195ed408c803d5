package engine

import (
	"fmt"
	"sort"

	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// operator executes one atomic computation implementation over
// relations that are already in the implementation's required formats.
// It is written once, against Mover: local kernels run where the tuples
// live, all movement goes through Exchange and Reduce, and every
// aggregation folds its partials in (key, contraction index) order — so
// the sequential engine and the dist runtime at any shard count perform
// the same floating-point operations in the same order and produce the
// same bytes.
type operator func(m Mover, n *plan.Node, ins []*Relation) (*Relation, error)

// operators is the one dispatch table of physical implementations; the
// names are the stable identifiers shared with internal/impl.
var operators = map[string]operator{
	"mm-single-single":             mmSingleSingle,
	"mm-bcast-single-colstrip":     mmBcastSingleColStrip,
	"mm-rowstrip-bcast-single":     mmRowStripBcastSingle,
	"mm-rowstrip-colstrip":         mmRowStripColStrip,
	"mm-colstrip-rowstrip-agg":     mmColStripRowStripAgg,
	"mm-tile-tile-shuffle":         mmTileTileShuffle,
	"mm-tile-tile-bcast":           mmTileTileBcast,
	"mm-bcast-single-tile":         mmBcastSingleTile,
	"mm-tile-bcast-single":         mmTileBcastSingle,
	"mm-csr-single-single":         mmCSRSingleSingle,
	"mm-bcast-csr-rowstrip-agg":    mmBcastCSRRowStripAgg,
	"mm-csr-rowstrip-bcast-single": mmCSRRowStripBcastSingle,
	"mm-bcast-coo-single":          mmBcastCOOSingle,
	"add-single":                   ewSingle,
	"sub-single":                   ewSingle,
	"hadamard-single":              ewSingle,
	"add-copart":                   ewCoPart,
	"sub-copart":                   ewCoPart,
	"hadamard-copart":              ewCoPart,
	"relu-map":                     mapOp,
	"relugrad-map":                 mapOp,
	"sigmoid-map":                  mapOp,
	"exp-map":                      mapOp,
	"neg-map":                      mapOp,
	"scalarmul-map":                mapOp,
	"softmax-single":               mapOp,
	"softmax-rowstrip":             mapOp,
	"addbias-single":               addBias,
	"addbias-rowstrip-bcast":       addBias,
	"rowsums-single":               rowSums,
	"rowsums-rowstrip":             rowSums,
	"colsums-single":               colSums,
	"colsums-colstrip":             colSums,
	"transpose-single":             transposeDense,
	"transpose-tile":               transposeDense,
	"transpose-strip":              transposeDense,
	"transpose-csr-single":         transposeCSR,
	"inverse-single":               inverse,
}

// Compute runs a compute node's implementation from the operator table
// and checks the result against the plan's output format.
func Compute(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	run, ok := operators[n.Name]
	if !ok {
		return nil, fmt.Errorf("no operator for implementation %q", n.Name)
	}
	out, err := run(m, n, ins)
	if err != nil {
		return nil, fmt.Errorf("executing vertex %d (%s): %w", n.Vertex, n.Name, err)
	}
	if out.Format != n.OutFormat {
		return nil, fmt.Errorf("vertex %d produced %v, plan says %v", n.Vertex, out.Format, n.OutFormat)
	}
	return out, nil
}

// product charges the FLOPs of a·b now and returns the deferred kernel
// call, so a Reduce can decide where and when the multiply runs.
func product(m Mover, kc tensor.K, a, b *tensor.Dense) func() *tensor.Dense {
	m.Flops(2 * int64(a.Rows) * int64(a.Cols) * int64(b.Cols))
	return func() *tensor.Dense { return kc.MatMul(a, b) }
}

// csrProduct is product for a sparse left operand.
func csrProduct(m Mover, kc tensor.K, a *sparse.CSR, b *tensor.Dense) func() *tensor.Dense {
	m.Flops(2 * int64(a.NNZ()) * int64(b.Cols))
	return func() *tensor.Dense { return a.MulDenseK(kc, b) }
}

// colocate moves the smaller of two one-tuple relations to the shard
// holding the larger (the movement the cost model prices as min-bytes)
// and returns both tuples plus the compute site.
func colocate(m Mover, n *plan.Node, a, b *Relation) (Tuple, Tuple, int, error) {
	ta, sa, err := a.sole()
	if err != nil {
		return Tuple{}, Tuple{}, -1, err
	}
	tb, sb, err := b.sole()
	if err != nil {
		return Tuple{}, Tuple{}, -1, err
	}
	site := sa
	if tb.Bytes() > ta.Bytes() {
		site = sb
	}
	x := Xfer{Vertex: n.Vertex, Kind: "move", Label: "co-locate singles"}
	toSite := func(Tuple) int { return site }
	if sa != site {
		recv, err := shuffle(m, x, a, toSite)
		if err != nil {
			return Tuple{}, Tuple{}, -1, err
		}
		ta = recv[site][0]
	}
	if sb != site {
		recv, err := shuffle(m, x, b, toSite)
		if err != nil {
			return Tuple{}, Tuple{}, -1, err
		}
		tb = recv[site][0]
	}
	return ta, tb, site, nil
}

// pairAtSite co-locates two one-tuple relations and runs f where they
// meet; the dense result is the output's single tuple.
func pairAtSite(m Mover, n *plan.Node, ins []*Relation, f func(a, b Tuple) *tensor.Dense) (*Relation, error) {
	ta, tb, site, err := colocate(m, n, ins[0], ins[1])
	if err != nil {
		return nil, err
	}
	var rel *Relation
	err = m.On(site, func() error {
		out := f(ta, tb)
		rel = single(m, format.NewSingle(), n.OutShape, Tuple{Dense: out}, site)
		return nil
	})
	return rel, err
}

// atHolder runs f on the shard holding a one-tuple relation and leaves
// the resulting tuple there as a one-tuple relation in format outFmt.
func atHolder(m Mover, n *plan.Node, in *Relation, outFmt format.Format, f func(t Tuple) (Tuple, error)) (*Relation, error) {
	t, holder, err := in.sole()
	if err != nil {
		return nil, err
	}
	var rel *Relation
	err = m.On(holder, func() error {
		out, err := f(t)
		if err != nil {
			return err
		}
		rel = single(m, outFmt, n.OutShape, out, holder)
		return nil
	})
	return rel, err
}

// chunked wraps an operator's per-shard output tuples as its result
// relation, or passes on the error that interrupted producing them.
func chunked(f format.Format, n *plan.Node, parts [][]Tuple, err error) (*Relation, error) {
	if err != nil {
		return nil, err
	}
	return &Relation{Format: f, Shape: n.OutShape, Parts: parts}, nil
}

// mapLocal applies f to every tuple on the shard it lives on, in key
// order per shard; results keep their shard.
func mapLocal(m Mover, in *Relation, f func(shard int, t Tuple) Tuple) ([][]Tuple, error) {
	parts := make([][]Tuple, m.Shards())
	err := m.Parallel(func(s int) error {
		for _, t := range sortedShard(in, s) {
			parts[s] = append(parts[s], f(s, t))
		}
		return nil
	})
	return parts, err
}

// broadcastSingleDense broadcasts a one-tuple dense relation to the
// shards where partner holds a tuple and returns each shard's copy (nil
// on the others).
func broadcastSingleDense(m Mover, n *plan.Node, rel, partner *Relation, label string) ([]*tensor.Dense, error) {
	if _, _, err := rel.singleDense(); err != nil {
		return nil, err
	}
	copies, err := broadcast(m, Xfer{Vertex: n.Vertex, Kind: "broadcast", Label: label}, rel, partner)
	if err != nil {
		return nil, err
	}
	out := make([]*tensor.Dense, m.Shards())
	for s := range copies {
		if len(partner.Parts[s]) == 0 {
			continue
		}
		if len(copies[s]) != 1 || copies[s][0].Dense == nil {
			return nil, fmt.Errorf("broadcast of %v delivered %d tuples to shard %d", rel.Format, len(copies[s]), s)
		}
		out[s] = copies[s][0].Dense
	}
	return out, nil
}

// broadcastSmaller broadcasts whichever of two relations holds fewer
// bytes to the shards where the other holds a tuple and reports which
// argument that was.
func broadcastSmaller(m Mover, n *plan.Node, ins []*Relation) (int, [][]Tuple, error) {
	bcast := 0
	if ins[1].Bytes() < ins[0].Bytes() {
		bcast = 1
	}
	copies, err := broadcast(m, Xfer{Vertex: n.Vertex, Kind: "broadcast", Label: fmt.Sprintf("broadcast(arg%d)", bcast)}, ins[bcast], ins[1-bcast])
	return bcast, copies, err
}

// sumByKey is the group-by-SUM onto each output key's home shard: the
// first partial of a key becomes its accumulator and later ones are
// added in place, in contraction order.
func sumByKey(m Mover, x Xfer, produce func(shard int) ([]Partial, error)) ([][]Tuple, error) {
	kc := m.Kern()
	parts := make([][]Tuple, m.Shards())
	err := m.Reduce(x, produce, func(s int, key Key, part *tensor.Dense) bool {
		if n := len(parts[s]); n > 0 && parts[s][n-1].Key == key {
			kc.AddInPlace(parts[s][n-1].Dense, part)
			return false
		}
		parts[s] = append(parts[s], Tuple{Key: key, Dense: part})
		return true
	})
	return parts, err
}

// sumAtOwner is the group-by-SUM of whole-matrix partials into one
// zeroed accumulator on the vertex's owner shard; fold adds one partial
// into the accumulator.
func sumAtOwner(m Mover, n *plan.Node, label string, produce func(shard, owner int) ([]Partial, error),
	fold func(acc *tensor.Dense, key Key, part *tensor.Dense)) (*Relation, error) {
	owner := m.OwnerShard(n.Vertex)
	acc := tensor.NewDense(int(n.OutShape.Rows), int(n.OutShape.Cols))
	err := m.Reduce(Xfer{Vertex: n.Vertex, Kind: "aggregate", Label: label},
		func(s int) ([]Partial, error) { return produce(s, owner) },
		func(_ int, key Key, part *tensor.Dense) bool { fold(acc, key, part); return false })
	if err != nil {
		return nil, err
	}
	return single(m, format.NewSingle(), n.OutShape, Tuple{Dense: acc}, owner), nil
}

// addPartial folds a whole-matrix partial into the accumulator.
func addPartial(kc tensor.K) func(acc *tensor.Dense, _ Key, part *tensor.Dense) {
	return func(acc *tensor.Dense, _ Key, part *tensor.Dense) { kc.AddInPlace(acc, part) }
}

func mmSingleSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	if _, _, err := ins[0].singleDense(); err != nil {
		return nil, err
	}
	if _, _, err := ins[1].singleDense(); err != nil {
		return nil, err
	}
	return pairAtSite(m, n, ins, func(a, b Tuple) *tensor.Dense {
		return product(m, m.Kern(), a.Dense, b.Dense)()
	})
}

func mmBcastSingleColStrip(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	as, err := broadcastSingleDense(m, n, ins[0], ins[1], "broadcast(a)")
	if err != nil {
		return nil, err
	}
	parts, err := mapLocal(m, ins[1], func(s int, t Tuple) Tuple {
		return Tuple{Key: t.Key, Dense: product(m, kc, as[s], t.Dense)()}
	})
	return chunked(ins[1].Format, n, parts, err)
}

func mmRowStripBcastSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	bs, err := broadcastSingleDense(m, n, ins[1], ins[0], "broadcast(b)")
	if err != nil {
		return nil, err
	}
	parts, err := mapLocal(m, ins[0], func(s int, t Tuple) Tuple {
		return Tuple{Key: t.Key, Dense: product(m, kc, t.Dense, bs[s])()}
	})
	return chunked(ins[0].Format, n, parts, err)
}

func mmRowStripColStrip(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	// Broadcast the smaller side; every (rowstrip, colstrip) pair is
	// multiplied where the larger side's tuple lives, and each output
	// tile is shuffled to its home shard.
	bcast, copies, err := broadcastSmaller(m, n, ins)
	if err != nil {
		return nil, err
	}
	parts, err := m.Exchange(Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "shuffle(out)"}, func(s int) ([]Routed, error) {
		var out []Routed
		for _, tl := range sortedShard(ins[1-bcast], s) {
			for _, tc := range copies[s] {
				ta, tb := tl, tc
				if bcast == 0 {
					ta, tb = tc, tl
				}
				key := Key{I: ta.Key.I, J: tb.Key.J}
				out = append(out, Routed{Dst: home(key, m.Shards()),
					Tuple: Tuple{Key: key, Dense: product(m, kc, ta.Dense, tb.Dense)()}})
			}
		}
		return out, nil
	})
	return chunked(format.NewTile(ins[0].Format.Block), n, parts, err)
}

func mmColStripRowStripAgg(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	// Co-partition by contraction index: A's colstrip (0, k) joins B's
	// rowstrip (k, 0) on home((k, 0)) — B is already there, so only A
	// moves. Partial products then aggregate on the owner shard in
	// contraction order.
	recvA, err := shuffle(m, Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "shuffle(a)"}, ins[0],
		func(t Tuple) int { return home(Key{I: t.Key.J, J: 0}, m.Shards()) })
	if err != nil {
		return nil, err
	}
	return sumAtOwner(m, n, "partials→owner", func(s, owner int) ([]Partial, error) {
		bByKey := make(map[int64]*tensor.Dense)
		for _, t := range ins[1].Parts[s] {
			bByKey[t.Key.I] = t.Dense
		}
		var out []Partial
		for _, ta := range recvA[s] {
			tb, ok := bByKey[ta.Key.J]
			if !ok {
				return nil, fmt.Errorf("co-partition join missed strip %d", ta.Key.J)
			}
			out = append(out, Partial{Dst: owner, Seq: ta.Key.J, Make: product(m, kc, ta.Dense, tb)})
		}
		return out, nil
	}, addPartial(kc))
}

// tileTileProducts multiplies the (A tile (i, k), B tile (k, j)) pairs
// that pairs reports resident on each shard and group-by-SUMs the
// partial products onto each output tile's home shard in contraction
// order — shared by the shuffle and broadcast tile strategies.
func tileTileProducts(m Mover, n *plan.Node, blk int64, pairs func(shard int) (as, bs []Tuple)) (*Relation, error) {
	kc := m.Kern()
	parts, err := sumByKey(m, Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "shuffle(out)"}, func(s int) ([]Partial, error) {
		as, bs := pairs(s)
		bByRow := make(map[int64][]Tuple)
		for _, t := range bs { // key-ordered, so buckets stay key-ordered
			bByRow[t.Key.I] = append(bByRow[t.Key.I], t)
		}
		var out []Partial
		for _, ta := range as {
			for _, tb := range bByRow[ta.Key.J] {
				key := Key{I: ta.Key.I, J: tb.Key.J}
				out = append(out, Partial{Dst: home(key, m.Shards()), Key: key, Seq: ta.Key.J,
					Make: product(m, kc, ta.Dense, tb.Dense)})
			}
		}
		return out, nil
	})
	return chunked(format.NewTile(blk), n, parts, err)
}

func mmTileTileShuffle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	// Shuffle both sides by contraction index k so tile pairs meet on
	// home((k, k)).
	cOf := func(k int64) int { return home(Key{I: k, J: k}, m.Shards()) }
	recvA, err := shuffle(m, Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "shuffle(a)"}, ins[0],
		func(t Tuple) int { return cOf(t.Key.J) })
	if err != nil {
		return nil, err
	}
	recvB, err := shuffle(m, Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "shuffle(b)"}, ins[1],
		func(t Tuple) int { return cOf(t.Key.I) })
	if err != nil {
		return nil, err
	}
	return tileTileProducts(m, n, ins[0].Format.Block, func(s int) (as, bs []Tuple) { return recvA[s], recvB[s] })
}

func mmTileTileBcast(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	// Broadcast the smaller side; each pair is multiplied where the
	// larger side's tile lives (exactly once, since that tile is unique
	// to one shard).
	bcast, copies, err := broadcastSmaller(m, n, ins)
	if err != nil {
		return nil, err
	}
	return tileTileProducts(m, n, ins[0].Format.Block, func(s int) (as, bs []Tuple) {
		if bcast == 0 {
			return copies[s], sortedShard(ins[1], s)
		}
		return sortedShard(ins[0], s), copies[s]
	})
}

func mmBcastSingleTile(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	as, err := broadcastSingleDense(m, n, ins[0], ins[1], "broadcast(a)")
	if err != nil {
		return nil, err
	}
	b := int(ins[1].Format.Block)
	drawn := newOperands[*tensor.Dense](m)
	defer drawn.release(tensor.Release)
	parts, err := sumByKey(m, Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "partials"}, func(s int) ([]Partial, error) {
		a := as[s]
		var out []Partial
		for _, tb := range sortedShard(ins[1], s) {
			c0 := int(tb.Key.I) * b
			key := Key{I: 0, J: tb.Key.J}
			out = append(out, Partial{Dst: home(key, m.Shards()), Key: key, Seq: tb.Key.I,
				Make: product(m, kc, drawn.add(s, a.Slice(0, a.Rows, c0, c0+tb.Dense.Rows)), tb.Dense)})
		}
		return out, nil
	})
	return chunked(format.NewColStrip(ins[1].Format.Block), n, parts, err)
}

func mmTileBcastSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	bs, err := broadcastSingleDense(m, n, ins[1], ins[0], "broadcast(b)")
	if err != nil {
		return nil, err
	}
	bk := int(ins[0].Format.Block)
	drawn := newOperands[*tensor.Dense](m)
	defer drawn.release(tensor.Release)
	parts, err := sumByKey(m, Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "partials"}, func(s int) ([]Partial, error) {
		b := bs[s]
		var out []Partial
		for _, ta := range sortedShard(ins[0], s) {
			r0 := int(ta.Key.J) * bk
			key := Key{I: ta.Key.I, J: 0}
			out = append(out, Partial{Dst: home(key, m.Shards()), Key: key, Seq: ta.Key.J,
				Make: product(m, kc, ta.Dense, drawn.add(s, b.Slice(r0, r0+ta.Dense.Cols, 0, b.Cols)))})
		}
		return out, nil
	})
	return chunked(format.NewRowStrip(ins[0].Format.Block), n, parts, err)
}

func mmCSRSingleSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	if _, _, err := ins[0].singleCSR(); err != nil {
		return nil, err
	}
	if _, _, err := ins[1].singleDense(); err != nil {
		return nil, err
	}
	return pairAtSite(m, n, ins, func(a, b Tuple) *tensor.Dense {
		return csrProduct(m, m.Kern(), a.CSR, b.Dense)()
	})
}

// csrColSlice extracts columns [c0, c1) of a CSR matrix, renumbering
// column indices to the slice. Columns ascend within a row, so a row's
// share of the slice is the run between two binary searches; the runs
// are located first and copied into arrays of exactly their total size,
// drawn from the tensor free lists.
func csrColSlice(m *sparse.CSR, c0, c1 int) *sparse.CSR {
	rowPtr := tensor.DrawInts(m.Rows + 1)
	from := tensor.DrawInts(m.Rows) // where each row's run starts in m
	defer tensor.ReleaseInts(from)
	rowPtr[0] = 0
	for i := range from {
		row := m.ColIdx[m.RowPtr[i]:m.RowPtr[i+1]]
		lo := sort.SearchInts(row, c0)
		from[i] = m.RowPtr[i] + lo
		rowPtr[i+1] = rowPtr[i] + sort.SearchInts(row[lo:], c1)
	}
	colIdx := tensor.DrawInts(rowPtr[m.Rows])
	val := tensor.DrawFloats(rowPtr[m.Rows])
	for i, p := range from {
		q := p + rowPtr[i+1] - rowPtr[i]
		copy(val[rowPtr[i]:], m.Val[p:q])
		for k, c := range m.ColIdx[p:q] {
			colIdx[rowPtr[i]+k] = c - c0
		}
	}
	return &sparse.CSR{Rows: m.Rows, Cols: c1 - c0, RowPtr: rowPtr, ColIdx: colIdx, Val: val}
}

// operands is what an operator draws for its own products on each
// shard — slices of an operand that no relation holds. Each shard adds
// only to its own list, and release gives all of them back once the
// operator's movement has returned: every product made of them has been
// made by then.
type operands[T any] [][]T

func newOperands[T any](m Mover) operands[T] { return make(operands[T], m.Shards()) }

// add records x as shard s's and returns it.
func (o operands[T]) add(s int, x T) T {
	o[s] = append(o[s], x)
	return x
}

func (o operands[T]) release(free func(T)) {
	for _, xs := range o {
		for _, x := range xs {
			free(x)
		}
	}
}

func mmBcastCSRRowStripAgg(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	if _, _, err := ins[0].singleCSR(); err != nil {
		return nil, err
	}
	copies, err := broadcast(m, Xfer{Vertex: n.Vertex, Kind: "broadcast", Label: "broadcast(a)"}, ins[0], ins[1])
	if err != nil {
		return nil, err
	}
	drawn := newOperands[*sparse.CSR](m)
	defer drawn.release(sparse.Release)
	h := int(ins[1].Format.Block)
	return sumAtOwner(m, n, "partials→owner", func(s, owner int) ([]Partial, error) {
		if len(ins[1].Parts[s]) == 0 {
			return nil, nil
		}
		if len(copies[s]) != 1 || copies[s][0].CSR == nil {
			return nil, fmt.Errorf("broadcast csr missing on shard %d", s)
		}
		a := copies[s][0].CSR
		var out []Partial
		for _, tb := range sortedShard(ins[1], s) {
			r0 := int(tb.Key.I) * h
			out = append(out, Partial{Dst: owner, Seq: tb.Key.I,
				Make: csrProduct(m, kc, drawn.add(s, csrColSlice(a, r0, r0+tb.Dense.Rows)), tb.Dense)})
		}
		return out, nil
	}, addPartial(kc))
}

func mmCSRRowStripBcastSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	bs, err := broadcastSingleDense(m, n, ins[1], ins[0], "broadcast(b)")
	if err != nil {
		return nil, err
	}
	parts, err := mapLocal(m, ins[0], func(s int, t Tuple) Tuple {
		return Tuple{Key: t.Key, Dense: csrProduct(m, kc, t.CSR, bs[s])()}
	})
	return chunked(format.NewRowStrip(ins[0].Format.Block), n, parts, err)
}

func mmBcastCOOSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	bs, err := broadcastSingleDense(m, n, ins[1], ins[0], "broadcast(b)")
	if err != nil {
		return nil, err
	}
	return sumAtOwner(m, n, "scaled rows→owner", func(s, owner int) ([]Partial, error) {
		b := bs[s]
		var out []Partial
		for _, t := range sortedShard(ins[0], s) {
			if !t.IsVal {
				return nil, fmt.Errorf("COO relation holds a non-triple tuple")
			}
			if t.Val == 0 {
				continue
			}
			// Scale b's row t.Key.J by the triple's value; the owner adds
			// the products into the accumulator row — multiply, then add,
			// whatever the shard count.
			v, brow := t.Val, b.Data[int(t.Key.J)*b.Cols:(int(t.Key.J)+1)*b.Cols]
			m.Flops(2 * int64(b.Cols))
			out = append(out, Partial{Dst: owner, Key: t.Key, Make: func() *tensor.Dense {
				c := tensor.Draw(1, len(brow))
				for j, bv := range brow {
					c.Data[j] = v * bv
				}
				return c
			}})
		}
		return out, nil
	}, func(acc *tensor.Dense, key Key, part *tensor.Dense) { // arrives sorted by element coordinate
		row := acc.Data[int(key.I)*acc.Cols : (int(key.I)+1)*acc.Cols]
		for j, cv := range part.Data {
			row[j] += cv
		}
	})
}

func ewKernel(kc tensor.K, k op.Kind) func(a, b *tensor.Dense) *tensor.Dense {
	switch k {
	case op.Add:
		return kc.Add
	case op.Sub:
		return kc.Sub
	case op.Hadamard:
		return kc.Hadamard
	}
	panic(fmt.Sprintf("engine: %v is not an elementwise op", k))
}

func ewSingle(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	if _, _, err := ins[0].singleDense(); err != nil {
		return nil, err
	}
	if _, _, err := ins[1].singleDense(); err != nil {
		return nil, err
	}
	m.Flops(n.OutShape.Elems())
	kern := ewKernel(m.Kern(), n.Op.Kind)
	return pairAtSite(m, n, ins, func(a, b Tuple) *tensor.Dense { return kern(a.Dense, b.Dense) })
}

func ewCoPart(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	// Re-home both sides onto home(key) — free for relations already
	// hash partitioned — then join locally per shard.
	x := Xfer{Vertex: n.Vertex, Kind: "copart", Label: "co-partition join"}
	byKey := func(t Tuple) int { return home(t.Key, m.Shards()) }
	ra, err := shuffle(m, x, ins[0], byKey)
	if err != nil {
		return nil, err
	}
	rb, err := shuffle(m, x, ins[1], byKey)
	if err != nil {
		return nil, err
	}
	m.Flops(n.OutShape.Elems())
	kern := ewKernel(m.Kern(), n.Op.Kind)
	parts := make([][]Tuple, m.Shards())
	err = m.Parallel(func(s int) error {
		bByKey := make(map[Key]*tensor.Dense, len(rb[s]))
		for _, t := range rb[s] {
			bByKey[t.Key] = t.Dense
		}
		for _, ta := range ra[s] {
			tb, ok := bByKey[ta.Key]
			if !ok {
				return fmt.Errorf("co-partition join missed key %v", ta.Key)
			}
			parts[s] = append(parts[s], Tuple{Key: ta.Key, Dense: kern(ta.Dense, tb)})
		}
		return nil
	})
	return chunked(ins[0].Format, n, parts, err)
}

func mapKernel(kc tensor.K, o op.Op) func(*tensor.Dense) *tensor.Dense {
	switch o.Kind {
	case op.ReLU:
		return kc.ReLU
	case op.ReLUGrad:
		return kc.ReLUGrad
	case op.Sigmoid:
		return kc.Sigmoid
	case op.Exp:
		return kc.Exp
	case op.Neg:
		return kc.Neg
	case op.Softmax:
		return kc.Softmax
	case op.ScalarMul:
		s := o.Scalar
		return func(m *tensor.Dense) *tensor.Dense { return kc.Scale(m, s) }
	}
	panic(fmt.Sprintf("engine: %v is not a map op", o.Kind))
}

func mapOp(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kern := mapKernel(m.Kern(), n.Op)
	parts, err := mapLocal(m, ins[0], func(_ int, t Tuple) Tuple {
		switch {
		case t.Dense != nil:
			m.Flops(int64(len(t.Dense.Data)))
			return Tuple{Key: t.Key, Dense: kern(t.Dense)}
		case t.CSR != nil:
			m.Flops(int64(t.CSR.NNZ()))
			return Tuple{Key: t.Key, CSR: throughDense(t.CSR, kern)}
		}
		d := tensor.FromRows([][]float64{{t.Val}})
		out := kern(d)
		v := out.At(0, 0)
		tensor.Release(d)
		tensor.Release(out)
		return Tuple{Key: t.Key, Val: v, IsVal: true}
	})
	return chunked(ins[0].Format, n, parts, err)
}

// throughDense applies a dense kernel to a CSR matrix: kern runs on its
// dense form and the result is compressed again. Both dense matrices go
// back to the free list.
func throughDense(c *sparse.CSR, kern func(*tensor.Dense) *tensor.Dense) *sparse.CSR {
	d := c.ToDense()
	out := kern(d)
	tensor.Release(d)
	defer tensor.Release(out)
	return sparse.FromDense(out)
}

// denseMap applies a per-tuple dense kernel shard-locally, keeping keys
// and placement.
func denseMap(m Mover, n *plan.Node, in *Relation, kern func(*tensor.Dense) *tensor.Dense) (*Relation, error) {
	parts, err := mapLocal(m, in, func(_ int, t Tuple) Tuple {
		m.Flops(int64(len(t.Dense.Data)))
		return Tuple{Key: t.Key, Dense: kern(t.Dense)}
	})
	return chunked(in.Format, n, parts, err)
}

func addBias(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	kc := m.Kern()
	bs, err := broadcastSingleDense(m, n, ins[1], ins[0], "broadcast(bias)")
	if err != nil {
		return nil, err
	}
	parts, err := mapLocal(m, ins[0], func(s int, t Tuple) Tuple {
		m.Flops(int64(len(t.Dense.Data)))
		return Tuple{Key: t.Key, Dense: kc.AddBias(t.Dense, bs[s])}
	})
	return chunked(ins[0].Format, n, parts, err)
}

func rowSums(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	return denseMap(m, n, ins[0], m.Kern().RowSums)
}

func colSums(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	return denseMap(m, n, ins[0], m.Kern().ColSums)
}

func transposeDense(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	in := ins[0]
	kc := m.Kern()
	transposed := func(t Tuple) Tuple {
		m.Flops(int64(len(t.Dense.Data)))
		return Tuple{Key: Key{I: t.Key.J, J: t.Key.I}, Dense: kc.Transpose(t.Dense)}
	}
	var outFmt format.Format
	switch in.Format.Kind {
	case format.Single:
		return atHolder(m, n, in, format.NewSingle(), func(t Tuple) (Tuple, error) { return transposed(t), nil })
	case format.Tile:
		outFmt = in.Format
	case format.RowStrip:
		outFmt = format.NewColStrip(in.Format.Block)
	case format.ColStrip:
		outFmt = format.NewRowStrip(in.Format.Block)
	default:
		return nil, fmt.Errorf("transpose operator got %v", in.Format)
	}
	// Transposing flips keys, so every chunk re-homes: a shuffle.
	parts, err := m.Exchange(Xfer{Vertex: n.Vertex, Kind: "shuffle", Label: "transposed chunks"}, func(s int) ([]Routed, error) {
		var out []Routed
		for _, t := range sortedShard(in, s) {
			tt := transposed(t)
			out = append(out, Routed{Dst: home(tt.Key, m.Shards()), Tuple: tt})
		}
		return out, nil
	})
	return chunked(outFmt, n, parts, err)
}

func transposeCSR(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	if _, _, err := ins[0].singleCSR(); err != nil {
		return nil, err
	}
	return atHolder(m, n, ins[0], format.NewCSRSingle(), func(t Tuple) (Tuple, error) {
		m.Flops(2 * int64(t.CSR.NNZ()))
		return Tuple{CSR: throughDense(t.CSR, m.Kern().Transpose)}, nil
	})
}

func inverse(m Mover, n *plan.Node, ins []*Relation) (*Relation, error) {
	if _, _, err := ins[0].singleDense(); err != nil {
		return nil, err
	}
	return atHolder(m, n, ins[0], format.NewSingle(), func(t Tuple) (Tuple, error) {
		rows := int64(t.Dense.Rows)
		m.Flops(2 * rows * rows * rows)
		inv, err := tensor.Inverse(t.Dense)
		return Tuple{Dense: inv}, err
	})
}
