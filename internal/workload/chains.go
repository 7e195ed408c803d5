package workload

import (
	"fmt"

	"matopt/internal/core"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/shape"
)

// MotivatingChain builds the §2.1 example: matA (100×10⁴, ten row
// strips) × matB (10⁴×100, ten column strips) × matC (100×10⁶, one
// hundred column strips).
func MotivatingChain() (*core.Graph, error) {
	g := core.NewGraph()
	a := g.Input("matA", shape.New(100, 10000), 1, format.NewRowStrip(10))
	b := g.Input("matB", shape.New(10000, 100), 1, format.NewColStrip(10))
	c := g.Input("matC", shape.New(100, 1000000), 1, format.NewColStrip(10000))
	ab, err := g.Apply(op.Op{Kind: op.MatMul}, a, b)
	if err != nil {
		return nil, err
	}
	if _, err := g.Apply(op.Op{Kind: op.MatMul}, ab, c); err != nil {
		return nil, err
	}
	return g, g.Validate()
}

// ChainSizes is one row of Figure 4: the shapes of the six chain inputs.
type ChainSizes struct {
	Name             string
	A, B, C, D, E, F shape.Shape
}

// ChainSizeSets returns the three size combinations of Figure 4.
func ChainSizeSets() []ChainSizes {
	k := int64(1000)
	return []ChainSizes{
		{
			Name: "Size Set 1",
			A:    shape.New(10*k, 30*k), B: shape.New(30*k, 50*k),
			C: shape.New(50*k, 1), D: shape.New(1, 50*k),
			E: shape.New(50*k, 10*k), F: shape.New(50*k, 10*k),
		},
		{
			Name: "Size Set 2",
			A:    shape.New(50*k, 1), B: shape.New(1, 100*k),
			C: shape.New(100*k, 30*k), D: shape.New(30*k, 100*k),
			E: shape.New(100*k, 50*k), F: shape.New(100*k, 30*k),
		},
		{
			Name: "Size Set 3",
			A:    shape.New(50*k, 50*k), B: shape.New(50*k, 50*k),
			C: shape.New(50*k, 50*k), D: shape.New(50*k, 50*k),
			E: shape.New(50*k, 50*k), F: shape.New(50*k, 50*k),
		},
	}
}

// defaultChainFormat picks the storage for a chain input: vectors and
// small matrices whole, everything else 1000×1000 tiles.
func defaultChainFormat(s shape.Shape) format.Format {
	single := format.NewSingle()
	if s.IsVector() || single.Valid(s, 1, 256<<20) {
		return single
	}
	return format.NewTile(1000)
}

// MatMulChain builds the §8.2 chain over the given sizes:
//
//	T1 ← A×B; T2 ← C×D; O ← ((T1×E) × (T1×T2)) × (T2×F)
//
// T1 and T2 are shared, so the graph is a DAG.
func MatMulChain(sz ChainSizes) (*core.Graph, error) {
	g := core.NewGraph()
	in := func(name string, s shape.Shape) *core.Vertex {
		return g.Input(name, s, 1, defaultChainFormat(s))
	}
	a, b, c, d := in("A", sz.A), in("B", sz.B), in("C", sz.C), in("D", sz.D)
	e, f := in("E", sz.E), in("F", sz.F)
	mm := op.Op{Kind: op.MatMul}
	t1, err := g.Apply(mm, a, b)
	if err != nil {
		return nil, fmt.Errorf("T1: %w", err)
	}
	t2, err := g.Apply(mm, c, d)
	if err != nil {
		return nil, fmt.Errorf("T2: %w", err)
	}
	t1e, err := g.Apply(mm, t1, e)
	if err != nil {
		return nil, fmt.Errorf("T1×E: %w", err)
	}
	t1t2, err := g.Apply(mm, t1, t2)
	if err != nil {
		return nil, fmt.Errorf("T1×T2: %w", err)
	}
	left, err := g.Apply(mm, t1e, t1t2)
	if err != nil {
		return nil, fmt.Errorf("(T1×E)×(T1×T2): %w", err)
	}
	t2f, err := g.Apply(mm, t2, f)
	if err != nil {
		return nil, fmt.Errorf("T2×F: %w", err)
	}
	if _, err := g.Apply(mm, left, t2f); err != nil {
		return nil, fmt.Errorf("O: %w", err)
	}
	return g, g.Validate()
}

// ScaleKind selects one of the §8.4 optimizer-runtime graph families.
type ScaleKind int

const (
	// ScaleTree chains T1←A×B; T2←C×D; O1←(T1×T2)×E; O2←O1×F segments,
	// each segment's O2 feeding the next segment's A; no sharing.
	ScaleTree ScaleKind = iota
	// ScaleDAG1 shares T1×T2 inside each segment and links segments
	// through A only.
	ScaleDAG1
	// ScaleDAG2 additionally links each segment's C to the previous
	// segment's O1, creating the more complicated dependency.
	ScaleDAG2
)

// ScaleGraph builds the Figure 13 graph of the given family at the given
// scale. All input matrices are 20,000×20,000 singles, as in §8.4.
func ScaleGraph(kind ScaleKind, scale int) (*core.Graph, error) {
	if scale < 1 {
		return nil, fmt.Errorf("workload: scale must be ≥ 1, got %d", scale)
	}
	g := core.NewGraph()
	s := shape.New(20000, 20000)
	mm := op.Op{Kind: op.MatMul}
	in := func(name string) *core.Vertex { return g.Input(name, s, 1, format.NewSingle()) }

	var prevO1, prevO2 *core.Vertex
	for seg := 0; seg < scale; seg++ {
		a := prevO2
		if a == nil {
			a = in(fmt.Sprintf("A%d", seg))
		}
		b := in(fmt.Sprintf("B%d", seg))
		var c *core.Vertex
		if kind == ScaleDAG2 && prevO1 != nil {
			c = prevO1
		} else {
			c = in(fmt.Sprintf("C%d", seg))
		}
		d := in(fmt.Sprintf("D%d", seg))
		e := in(fmt.Sprintf("E%d", seg))

		t1, err := g.Apply(mm, a, b)
		if err != nil {
			return nil, err
		}
		t2, err := g.Apply(mm, c, d)
		if err != nil {
			return nil, err
		}
		var o1, o2 *core.Vertex
		switch kind {
		case ScaleTree:
			t1t2, err := g.Apply(mm, t1, t2)
			if err != nil {
				return nil, err
			}
			if o1, err = g.Apply(mm, t1t2, e); err != nil {
				return nil, err
			}
			f := in(fmt.Sprintf("F%d", seg))
			if o2, err = g.Apply(mm, o1, f); err != nil {
				return nil, err
			}
		default: // DAG1 and DAG2 share T1×T2 between O1 and O2
			t1t2, err := g.Apply(mm, t1, t2)
			if err != nil {
				return nil, err
			}
			if o1, err = g.Apply(mm, t1t2, e); err != nil {
				return nil, err
			}
			if o2, err = g.Apply(mm, t1t2, o1); err != nil {
				return nil, err
			}
		}
		prevO1, prevO2 = o1, o2
	}
	return g, g.Validate()
}
