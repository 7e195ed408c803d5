// Package format defines the set P of physical matrix implementations
// (§3 of the paper). The prototype ships the paper's 19 formats: a
// single-tuple layout, nine square tile sizes, three row-strip heights,
// three column-strip widths, and three sparse layouts (relational
// triples, single-tuple CSR, and row-strip CSR). §8.4's restricted sets
// — single/strip/block (16) and single/block (10) — are exposed for the
// Figure 13 experiments.
package format

import (
	"fmt"

	"matopt/internal/shape"
)

// Kind is the structural family of a physical implementation.
type Kind uint8

const (
	// Single stores the whole matrix in one tuple.
	Single Kind = iota
	// Tile stores square Block×Block chunks keyed by (tileRow, tileCol).
	Tile
	// RowStrip stores Block×Cols horizontal strips keyed by tileRow.
	RowStrip
	// ColStrip stores Rows×Block vertical strips keyed by tileCol.
	ColStrip
	// COO stores relational (rowIndex, colIndex, value) triples.
	COO
	// CSRSingle stores the whole matrix as one CSR tuple.
	CSRSingle
	// CSRRowStrip stores CSR-encoded Block-row strips.
	CSRRowStrip
)

func (k Kind) String() string {
	switch k {
	case Single:
		return "single"
	case Tile:
		return "tile"
	case RowStrip:
		return "rowstrip"
	case ColStrip:
		return "colstrip"
	case COO:
		return "coo"
	case CSRSingle:
		return "csr-single"
	case CSRRowStrip:
		return "csr-rowstrip"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Format is one physical matrix implementation. Formats are small value
// types and are compared with ==.
type Format struct {
	Kind  Kind
	Block int64 // tile size / strip extent; 0 for Single, COO, CSRSingle
}

// NewSingle returns the whole-matrix-in-one-tuple format. Constructors
// panic on invalid parameters because format sets are fixed at
// configuration time.
func NewSingle() Format { return Format{Kind: Single} }

// NewTile returns the b×b square-tile format.
func NewTile(b int64) Format {
	if b <= 0 {
		panic("format: tile size must be positive")
	}
	return Format{Kind: Tile, Block: b}
}

// NewRowStrip returns the format of horizontal strips of height h.
func NewRowStrip(h int64) Format {
	if h <= 0 {
		panic("format: strip height must be positive")
	}
	return Format{Kind: RowStrip, Block: h}
}

// NewColStrip returns the format of vertical strips of width w.
func NewColStrip(w int64) Format {
	if w <= 0 {
		panic("format: strip width must be positive")
	}
	return Format{Kind: ColStrip, Block: w}
}

// NewCOO returns the relational (rowIndex, colIndex, value) format.
func NewCOO() Format { return Format{Kind: COO} }

// NewCSRSingle returns the whole-matrix CSR single-tuple format.
func NewCSRSingle() Format { return Format{Kind: CSRSingle} }

// NewCSRRowStrip returns the format of CSR-encoded strips of height h.
func NewCSRRowStrip(h int64) Format {
	if h <= 0 {
		panic("format: strip height must be positive")
	}
	return Format{Kind: CSRRowStrip, Block: h}
}

func (f Format) String() string {
	switch f.Kind {
	case Single, COO, CSRSingle:
		return f.Kind.String()
	default:
		return fmt.Sprintf("%s[%d]", f.Kind, f.Block)
	}
}

// IsSparse reports whether the format stores only non-zeros.
func (f Format) IsSparse() bool {
	return f.Kind == COO || f.Kind == CSRSingle || f.Kind == CSRRowStrip
}

// NumTuplesDensity returns the tuple count of the relation storing a
// matrix of shape s with the given non-zero fraction in this format;
// only COO, which stores one tuple per non-zero, depends on the density.
func (f Format) NumTuplesDensity(s shape.Shape, density float64) int64 {
	switch f.Kind {
	case Single, CSRSingle:
		return 1
	case Tile:
		return shape.CeilDiv(s.Rows, f.Block) * shape.CeilDiv(s.Cols, f.Block)
	case RowStrip, CSRRowStrip:
		return shape.CeilDiv(s.Rows, f.Block)
	case ColStrip:
		return shape.CeilDiv(s.Cols, f.Block)
	case COO:
		n := int64(density * float64(s.Elems()))
		if n < 1 {
			n = 1
		}
		return n
	}
	panic("format: unknown kind")
}

// Bytes returns the total storage bytes for shape s at the given density.
// Dense formats always materialize every entry; sparse formats store only
// non-zeros (plus index overhead).
func (f Format) Bytes(s shape.Shape, density float64) int64 {
	switch f.Kind {
	case Single, Tile, RowStrip, ColStrip:
		return s.Bytes()
	case COO:
		return f.NumTuplesDensity(s, density) * 16 // 2×int32 keys + float64
	case CSRSingle, CSRRowStrip:
		nnz := int64(density * float64(s.Elems()))
		if nnz < 1 {
			nnz = 1
		}
		rows := s.Rows + f.NumTuplesDensity(s, density) // row pointers across strips
		return rows*8 + nnz*12
	}
	panic("format: unknown kind")
}

// MaxTupleBytes returns the size of the largest tuple payload.
func (f Format) MaxTupleBytes(s shape.Shape, density float64) int64 {
	n := f.NumTuplesDensity(s, density)
	switch f.Kind {
	case Single, CSRSingle:
		return f.Bytes(s, density)
	case COO:
		return 16
	case Tile:
		return f.Block * f.Block * 8
	case RowStrip:
		return f.Block * s.Cols * 8
	case ColStrip:
		return s.Rows * f.Block * 8
	case CSRRowStrip:
		return f.Bytes(s, density) / n
	}
	panic("format: unknown kind")
}

// Valid is the paper's matrix-type specification function p.f(m): it
// reports whether this format can physically store a matrix of shape s at
// the given density under the cluster's per-tuple size bound.
func (f Format) Valid(s shape.Shape, density float64, maxTupleBytes int64) bool {
	switch f.Kind {
	case Tile:
		// Tiles must not exceed the matrix in both extents (otherwise
		// the layout degenerates to Single and is redundant).
		if f.Block > s.Rows && f.Block > s.Cols {
			return false
		}
	case RowStrip, CSRRowStrip:
		if f.Block > s.Rows {
			return false
		}
	case ColStrip:
		if f.Block > s.Cols {
			return false
		}
	}
	return f.MaxTupleBytes(s, density) <= maxTupleBytes
}
