package engine

import (
	"fmt"
	"sort"

	"matopt/internal/format"
	"matopt/internal/shape"
	"matopt/internal/sparse"
	"matopt/internal/tensor"
)

// Chunk splits a dense matrix into the tuples of the given physical
// format, validating the layout against the per-tuple size bound.
// Sparse target formats extract the non-zeros; a single's one tuple is m
// itself, shared, since no operator writes its inputs. It is the layout
// half of Scan and Relayout; placement (which shard each tuple lives on)
// is theirs.
func Chunk(m *tensor.Dense, f format.Format, maxTupleBytes int64) ([]Tuple, shape.Shape, error) {
	s := shape.New(int64(m.Rows), int64(m.Cols))
	// Only a sparse format's tuple size depends on the density, and
	// measuring it is a pass over the matrix.
	density := 1.0
	if f.IsSparse() {
		density = m.Density()
	}
	if !f.Valid(s, density, maxTupleBytes) {
		return nil, s, fmt.Errorf("engine: %v cannot store a %v matrix", f, s)
	}
	var tuples []Tuple
	switch f.Kind {
	case format.Single:
		tuples = []Tuple{{Key: Key{0, 0}, Dense: m}}
	case format.Tile:
		b := int(f.Block)
		for i := 0; i < m.Rows; i += b {
			for j := 0; j < m.Cols; j += b {
				tuples = append(tuples, Tuple{
					Key:   Key{int64(i / b), int64(j / b)},
					Dense: m.Slice(i, min(i+b, m.Rows), j, min(j+b, m.Cols)),
				})
			}
		}
	case format.RowStrip:
		h := int(f.Block)
		for i := 0; i < m.Rows; i += h {
			tuples = append(tuples, Tuple{
				Key:   Key{int64(i / h), 0},
				Dense: m.Slice(i, min(i+h, m.Rows), 0, m.Cols),
			})
		}
	case format.ColStrip:
		w := int(f.Block)
		for j := 0; j < m.Cols; j += w {
			tuples = append(tuples, Tuple{
				Key:   Key{0, int64(j / w)},
				Dense: m.Slice(0, m.Rows, j, min(j+w, m.Cols)),
			})
		}
	case format.COO:
		for _, tr := range sparse.FromDenseCOO(m) {
			tuples = append(tuples, Tuple{Key: Key{int64(tr.Row), int64(tr.Col)}, Val: tr.Val, IsVal: true})
		}
		if len(tuples) == 0 { // an all-zero matrix still needs presence
			tuples = []Tuple{{Key: Key{0, 0}, Val: 0, IsVal: true}}
		}
	case format.CSRSingle:
		tuples = []Tuple{{Key: Key{0, 0}, CSR: sparse.FromDense(m)}}
	case format.CSRRowStrip:
		h := int(f.Block)
		whole := sparse.FromDense(m)
		for i := 0; i < m.Rows; i += h {
			tuples = append(tuples, Tuple{
				Key: Key{int64(i / h), 0},
				CSR: whole.RowSlice(i, min(i+h, m.Rows)),
			})
		}
		sparse.Release(whole)
	default:
		return nil, s, fmt.Errorf("engine: unknown format %v", f)
	}
	return tuples, s, nil
}

// Assemble reconstructs the dense matrix a relation stores, validating
// that its tuples tile the shape exactly; tuple order does not matter
// because every tuple writes a disjoint region (or, for COO, a distinct
// element). A single relation's payload is returned as is, not copied:
// the caller only reads it (Collect copies). Every other matrix is
// drawn for the caller, who owns it.
func Assemble(r *Relation) (*tensor.Dense, error) {
	var tuples []Tuple
	for _, p := range r.Parts {
		tuples = append(tuples, p...)
	}
	switch r.Format.Kind {
	case format.Single:
		if len(tuples) != 1 || tuples[0].Dense == nil {
			return nil, fmt.Errorf("engine: malformed single relation (%d tuples)", len(tuples))
		}
		return tuples[0].Dense, nil
	case format.CSRSingle:
		if len(tuples) != 1 || tuples[0].CSR == nil {
			return nil, fmt.Errorf("engine: malformed csr-single relation")
		}
		return tuples[0].CSR.ToDense(), nil
	}
	m := tensor.NewDense(int(r.Shape.Rows), int(r.Shape.Cols))
	switch r.Format.Kind {
	case format.Tile:
		b := int(r.Format.Block)
		for _, t := range tuples {
			if t.Dense == nil {
				return nil, fmt.Errorf("engine: tile tuple without dense payload")
			}
			m.SetSlice(int(t.Key.I)*b, int(t.Key.J)*b, t.Dense)
		}
	case format.RowStrip:
		h := int(r.Format.Block)
		for _, t := range tuples {
			m.SetSlice(int(t.Key.I)*h, 0, t.Dense)
		}
	case format.ColStrip:
		w := int(r.Format.Block)
		for _, t := range tuples {
			m.SetSlice(0, int(t.Key.J)*w, t.Dense)
		}
	case format.COO:
		for _, t := range tuples {
			if !t.IsVal {
				return nil, fmt.Errorf("engine: COO tuple without value payload")
			}
			m.Set(int(t.Key.I), int(t.Key.J), t.Val)
		}
	case format.CSRRowStrip:
		h := int(r.Format.Block)
		for _, t := range tuples {
			d := t.CSR.ToDense()
			m.SetSlice(int(t.Key.I)*h, 0, d)
			tensor.Release(d)
		}
	default:
		return nil, fmt.Errorf("engine: unknown format %v", r.Format)
	}
	return m, nil
}

// Collect assembles a relation back into a dense matrix, validating that
// its tuples tile the shape exactly. The matrix shares no memory with
// the relation — a single's payload is copied — so a runtime's outputs
// alias neither its inputs nor storage it may recycle.
func Collect(r *Relation) (*tensor.Dense, error) {
	m, err := Assemble(r)
	if err == nil && r.Format.Kind == format.Single {
		m = m.Clone()
	}
	return m, err
}

// sortTuples orders tuples by key for deterministic iteration; every
// runtime relies on this order to make floating-point accumulation
// reproducible.
func sortTuples(ts []Tuple) {
	sort.Slice(ts, func(i, j int) bool { return keyLess(ts[i].Key, ts[j].Key) })
}

func keyLess(a, b Key) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}
