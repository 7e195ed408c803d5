package engine

import (
	"fmt"
	"sort"

	"matopt/internal/format"
	"matopt/internal/shape"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// Mover is everything the operator table needs from the runtime it runs
// on: how many shards hold a relation's tuples, where local compute is
// placed, and the two ways tuples cross shards. The table never touches
// another shard's tuples except through Exchange and Reduce, so one
// operator definition serves every runtime that implements Mover — the
// sequential engine at one shard (local, below) and the dist runtime at
// P shards over its fabric.
type Mover interface {
	// Shards is the number of partitions every relation is split into.
	Shards() int
	// OwnerShard is the deterministic home of a vertex's one-tuple
	// outputs and of its owner-side aggregations.
	OwnerShard(vertex int) int
	// Kern is the kernel context local compute runs under.
	Kern() tensor.K
	// Flops records n floating-point operations of local compute.
	Flops(n int64)
	// Parallel runs fn(s) for every shard s, on that shard, and waits;
	// the first error by shard index is returned.
	Parallel(fn func(shard int) error) error
	// On runs fn on one shard and waits for it.
	On(shard int, fn func() error) error
	// Exchange is the shuffle: produce runs on every shard and emits
	// tuples with explicit destinations; each shard's arrivals come back
	// in key order, whatever order they travelled in.
	Exchange(x Xfer, produce func(shard int) ([]Routed, error)) ([][]Tuple, error)
	// Reduce is the group-by-SUM movement: produce runs on every shard
	// and emits deferred partial results; on each destination shard fold
	// is called once per partial in (Key, Seq) order — the one reduction
	// order every runtime replays, which is what makes floating-point
	// sums bit-identical across shard counts. A runtime may evaluate
	// Make where the partial is produced (dist, before the wire) or only
	// as fold consumes it (the sequential engine, so one partial is live
	// at a time). fold reports whether it kept part; one it did not keep
	// has been added into an accumulator, and the runtime may recycle it.
	Reduce(x Xfer, produce func(shard int) ([]Partial, error), fold func(shard int, key Key, part *tensor.Dense) (kept bool)) error
}

// Xfer names one movement for metering and tracing: the consuming
// vertex, the movement kind and a human-readable label.
type Xfer struct {
	Vertex      int
	Kind, Label string
}

// Routed is a tuple with an explicit destination shard.
type Routed struct {
	Dst   int
	Tuple Tuple
}

// Partial is one deferred contribution to a group-by-SUM: Key is the
// output chunk it belongs to, Seq its contraction index (its position
// in the reduction order), Make the kernel call that computes it into
// storage nothing else holds.
type Partial struct {
	Dst  int
	Key  Key
	Seq  int64
	Make func() *tensor.Dense
}

// home returns the shard a key hashes to among n; chunked relations
// keep every tuple on home(key).
func home(k Key, n int) int {
	h := uint64(k.I)*0x9e3779b97f4a7c15 ^ uint64(k.J)*0xff51afd7ed558ccd
	return int(h % uint64(n))
}

// local is the sequential engine's Mover: one shard, so every movement
// is a local sort and every placement a direct call — no fabric, no
// goroutines, no meters.
type local struct{ e *Engine }

func (l local) Shards() int                             { return 1 }
func (l local) OwnerShard(int) int                      { return 0 }
func (l local) Kern() tensor.K                          { return l.e.kern() }
func (l local) Flops(n int64)                           { l.e.flops.Add(n) }
func (l local) Parallel(fn func(shard int) error) error { return fn(0) }
func (l local) On(_ int, fn func() error) error         { return fn() }

func (l local) Exchange(_ Xfer, produce func(shard int) ([]Routed, error)) ([][]Tuple, error) {
	out, err := produce(0)
	if err != nil {
		return nil, err
	}
	ts := make([]Tuple, len(out))
	for i, r := range out {
		ts[i] = r.Tuple
	}
	sortTuples(ts)
	return [][]Tuple{ts}, nil
}

func (l local) Reduce(_ Xfer, produce func(shard int) ([]Partial, error), fold func(shard int, key Key, part *tensor.Dense) bool) error {
	ps, err := produce(0)
	if err != nil {
		return err
	}
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].Key != ps[j].Key {
			return keyLess(ps[i].Key, ps[j].Key)
		}
		return ps[i].Seq < ps[j].Seq
	})
	for _, p := range ps {
		if part := p.Make(); !fold(0, p.Key, part) {
			tensor.Release(part)
		}
	}
	return nil
}

// broadcast ships every tuple of rel to every shard where partner holds
// a tuple — the only shards a broadcast join reads rel on — and returns
// each shard's copy in key order; a shard partner leaves empty receives
// nothing.
func broadcast(m Mover, x Xfer, rel, partner *Relation) ([][]Tuple, error) {
	return m.Exchange(x, func(s int) ([]Routed, error) {
		var out []Routed
		for _, t := range rel.Parts[s] {
			for d, p := range partner.Parts {
				if len(p) > 0 {
					out = append(out, Routed{Dst: d, Tuple: t})
				}
			}
		}
		return out, nil
	})
}

// shuffle ships every tuple of rel to the shard dst names and returns
// each shard's arrivals in key order. Delivery to the shard a tuple
// already lives on is free, so re-homing a relation that is already
// hash partitioned costs nothing.
func shuffle(m Mover, x Xfer, rel *Relation, dst func(Tuple) int) ([][]Tuple, error) {
	return m.Exchange(x, func(s int) ([]Routed, error) {
		out := make([]Routed, 0, len(rel.Parts[s]))
		for _, t := range rel.Parts[s] {
			out = append(out, Routed{Dst: dst(t), Tuple: t})
		}
		return out, nil
	})
}

// single builds a one-tuple relation (key (0, 0)) resident on shard.
func single(m Mover, f format.Format, s shape.Shape, t Tuple, shard int) *Relation {
	parts := make([][]Tuple, m.Shards())
	parts[shard] = []Tuple{t}
	return &Relation{Format: f, Shape: s, Parts: parts}
}

func isSingleKind(f format.Format) bool {
	return f.Kind == format.Single || f.Kind == format.CSRSingle
}

// Scan chunks a source matrix into format f on the vertex's owner shard
// and places the tuples: chunked formats are hash partitioned by key,
// single-kind formats stay on the owner.
func Scan(m Mover, vertex int, mat *tensor.Dense, f format.Format, maxTupleBytes int64) (*Relation, error) {
	owner := m.OwnerShard(vertex)
	var rel *Relation
	err := m.On(owner, func() error {
		tuples, s, err := Chunk(mat, f, maxTupleBytes)
		if err != nil {
			return err
		}
		rel = &Relation{Format: f, Shape: s, Parts: make([][]Tuple, m.Shards())}
		if isSingleKind(f) {
			rel.Parts[owner] = tuples
			return nil
		}
		for _, t := range tuples {
			d := home(t.Key, m.Shards())
			rel.Parts[d] = append(rel.Parts[d], t)
		}
		return nil
	})
	return rel, err
}

// Relayout re-lays-out the relation feeding argument arg of a vertex
// into the target format: the tuples are gathered onto a stitch shard,
// the matrix is assembled and re-chunked there, and the new chunks are
// scattered to their home shards. Gather and scatter are metered as one
// "transform" movement. The assembled matrix is the new single's
// payload, or goes back to the free list once chunked.
func Relayout(m Mover, vertex, arg int, rel *Relation, target format.Format, maxTupleBytes int64) (*Relation, error) {
	if target == rel.Format {
		return rel, nil
	}
	x := Xfer{Vertex: vertex, Kind: "transform", Label: fmt.Sprintf("arg%d %v→%v", arg, rel.Format, target)}
	stitch := stitchShard(rel, m.OwnerShard(vertex+31*arg))
	gathered, err := shuffle(m, x, rel, func(Tuple) int { return stitch })
	if err != nil {
		return nil, err
	}
	var tuples []Tuple
	out := &Relation{Format: target}
	err = m.On(stitch, func() error {
		whole := &Relation{Format: rel.Format, Shape: rel.Shape, Parts: gathered[stitch : stitch+1]}
		md, err := Assemble(whole)
		if err != nil {
			return fmt.Errorf("transform assemble: %w", err)
		}
		m.Flops(int64(md.Rows) * int64(md.Cols))
		tuples, out.Shape, err = Chunk(md, target, maxTupleBytes)
		if rel.Format.Kind != format.Single && (err != nil || target.Kind != format.Single) {
			tensor.Release(md) // assembled for this re-layout, and no tuple shares it
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	if isSingleKind(target) {
		return single(m, target, out.Shape, tuples[0], stitch), nil
	}
	out.Parts, err = m.Exchange(x, func(s int) ([]Routed, error) {
		if s != stitch {
			return nil, nil
		}
		routed := make([]Routed, len(tuples))
		for i, t := range tuples {
			routed[i] = Routed{Dst: home(t.Key, m.Shards()), Tuple: t}
		}
		return routed, nil
	})
	return out, err
}

// stitchShard is where a re-layout gathers rel: the shard that already
// holds the most of its bytes, so the gather moves the least; a tie
// goes to tie when it is among the tied shards, else to the lowest one.
func stitchShard(rel *Relation, tie int) int {
	held := func(s int) (b int64) {
		for _, t := range rel.Parts[s] {
			b += t.Bytes()
		}
		return b
	}
	stitch, most := tie, held(tie)
	for s := range rel.Parts {
		if b := held(s); b > most {
			stitch, most = s, b
		}
	}
	return stitch
}

// sole returns the relation's only tuple and the shard holding it.
func (r *Relation) sole() (Tuple, int, error) {
	var out Tuple
	shard, found := -1, false
	for s, p := range r.Parts {
		for _, t := range p {
			if found {
				return Tuple{}, -1, fmt.Errorf("relation %v has multiple tuples, expected one", r)
			}
			out, shard, found = t, s, true
		}
	}
	if !found {
		return Tuple{}, -1, fmt.Errorf("relation %v is empty", r)
	}
	return out, shard, nil
}

// singleDense returns the payload and home shard of a one-tuple dense
// relation.
func (r *Relation) singleDense() (*tensor.Dense, int, error) {
	t, s, err := r.sole()
	if err != nil {
		return nil, -1, err
	}
	if t.Dense == nil {
		return nil, -1, fmt.Errorf("relation %v is not a dense single", r)
	}
	return t.Dense, s, nil
}

// singleCSR returns the payload and home shard of a one-tuple CSR
// relation.
func (r *Relation) singleCSR() (*sparse.CSR, int, error) {
	t, s, err := r.sole()
	if err != nil {
		return nil, -1, err
	}
	if t.CSR == nil {
		return nil, -1, fmt.Errorf("relation %v is not a csr single", r)
	}
	return t.CSR, s, nil
}

// sortedShard returns shard s's tuples in key order; operators iterate
// local tuples in this order so per-shard output is deterministic.
func sortedShard(r *Relation, s int) []Tuple {
	ts := append([]Tuple(nil), r.Parts[s]...)
	sortTuples(ts)
	return ts
}
