package core

import (
	"sync/atomic"

	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/op"
	"matopt/internal/trans"
)

// Env is the optimization environment: the cluster profile, the cost
// model, and the universes of physical formats, transformations and
// implementations the optimizer may use. Restricting Formats (as in the
// §8.4 experiments) automatically restricts the transformations and the
// reachable implementations.
type Env struct {
	Cluster    costmodel.Cluster
	Model      *costmodel.Model
	Formats    []format.Format
	Transforms []*trans.Transform
	Impls      map[op.Kind][]*impl.Impl
	// MaxClassEntries bounds the joint cost table of one frontier
	// equivalence class. The paper's Algorithm 4 is exact but its
	// tables are Θ(|P|^c) for class size c; graphs with pathological
	// sharing (the two-level block inverse) can make c large. When a
	// table exceeds the bound, only the cheapest entries are kept — a
	// beam search over formats. 0 means DefaultMaxClassEntries; the
	// exactness tests against Brute stay far below any bound.
	MaxClassEntries int

	// fp holds the last rendering of the fields above that Fingerprint
	// hashes (see envRender). A pointer, so that an Env stays copyable;
	// copies share the cell, which is checked against the reader's own
	// fields before use. Nil outside NewEnv: nothing is cached.
	fp *atomic.Pointer[envRender]
}

// DefaultMaxClassEntries is the beam a zero Env.MaxClassEntries stands
// for.
const DefaultMaxClassEntries = 20000

// NewEnv returns an environment over the given format universe with every
// registered implementation available and the analytic default cost model.
func NewEnv(cl costmodel.Cluster, formats []format.Format) *Env {
	e := &Env{
		Cluster:    cl,
		Model:      costmodel.NewModel(cl),
		Formats:    formats,
		Transforms: trans.ForFormats(formats),
		Impls:      make(map[op.Kind][]*impl.Impl),
		fp:         new(atomic.Pointer[envRender]),
	}
	for _, k := range op.Kinds() {
		e.Impls[k] = impl.ForOp(k)
	}
	return e
}

// HasFormat reports whether f is in the environment's format universe.
func (e *Env) HasFormat(f format.Format) bool { return e.formatIndex(f) >= 0 }

// formatIndex returns the index of f in e.Formats, or −1.
func (e *Env) formatIndex(f format.Format) int {
	for i, g := range e.Formats {
		if g == f {
			return i
		}
	}
	return -1
}
