// Package trans defines the set T of physical matrix transformations
// (§3): costed re-layout algorithms that move a matrix from one physical
// implementation to another, letting the optimizer chain atomic
// computation implementations whose output and input formats differ.
// The prototype ships the paper's 20 transformations: the identity plus
// one re-layout per target format (1 single + 9 tiles + 3 row strips +
// 3 column strips + 3 sparse layouts).
//
// A re-layout to the single format is the paper's two-phase
// ROWMATRIX/COLMATRIX aggregation (§2.1); chunked→chunked re-layouts are
// repartitioning shuffles with local slicing/stitching; single→chunked
// is a scatter from the holder.
package trans

import (
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/shape"
)

// ID identifies a transformation; the engine dispatches on it.
type ID uint8

// Transform is one physical matrix transformation.
type Transform struct {
	ID       ID
	Name     string
	identity bool
	target   format.Format
}

// Out is the result of a transformation's type specification function.
type Out struct {
	Format          format.Format
	Features        costmodel.Features
	PeakWorkerBytes float64
}

// Identity reports whether this is the no-op transformation.
func (t *Transform) Identity() bool { return t.identity }

// Target returns the target format of a non-identity transformation.
func (t *Transform) Target() format.Format { return t.target }

func (t *Transform) String() string { return t.Name }

// Apply is the type specification function f : M×P → P ∪ {⊥} plus cost
// features. ok is false (⊥) when the transformation cannot produce a
// valid layout for this matrix, when it would be a no-op better served by
// the identity, or when it exceeds per-worker RAM.
func (t *Transform) Apply(s shape.Shape, density float64, from format.Format, cl costmodel.Cluster) (Out, bool) {
	if t.identity {
		return Out{Format: from}, true
	}
	if from == t.target {
		return Out{}, false // use Identity instead
	}
	to := t.target
	if !to.Valid(s, density, cl.MaxTupleBytes) {
		return Out{}, false
	}
	fromBytes := float64(from.Bytes(s, density))
	toBytes := float64(to.Bytes(s, density))
	fromTuples := from.NumTuplesDensity(s, density)
	toTuples := to.NumTuplesDensity(s, density)
	moveFlops := float64(s.Elems())
	if from.IsSparse() && to.IsSparse() {
		moveFlops = density * float64(s.Elems()) * 2
	}
	w := cl.Workers

	var f costmodel.Features
	var peak float64
	switch {
	case toTuples == 1 && fromTuples == 1:
		// Single-holder re-encode (e.g. single ↔ csr-single): move the
		// payload to the target's holder and convert locally.
		f = costmodel.Features{FLOPs: moveFlops, NetBytes: 0, Tuples: 2}
		peak = fromBytes + toBytes
	case toTuples == 1:
		// Gather: the paper's ROWMATRIX/COLMATRIX two-phase aggregation.
		// All chunks converge on one worker; an intermediate strip pass
		// is materialized along the way.
		f = costmodel.Features{
			FLOPs:      moveFlops,
			NetBytes:   costmodel.GatherBytes(fromBytes, w),
			InterBytes: fromBytes,
			Tuples:     float64(fromTuples) + 1,
		}
		// The whole target tuple is assembled on its holder; source
		// chunks stream in.
		peak = toBytes + 2*float64(from.MaxTupleBytes(s, density))
	case fromTuples == 1:
		// Scatter: the holder slices and distributes; its outbound link
		// is the bottleneck.
		f = costmodel.Features{
			FLOPs:    moveFlops,
			NetBytes: toBytes,
			Tuples:   float64(toTuples) + 1,
		}
		peak = fromBytes + 2*float64(to.MaxTupleBytes(s, density))
	default:
		// Chunked → chunked repartition: shuffle plus local stitching.
		f = costmodel.Features{
			FLOPs:      costmodel.ParallelFLOPs(moveFlops, w, fromTuples+toTuples),
			NetBytes:   costmodel.ShuffleBytes(fromBytes, w),
			InterBytes: costmodel.ShuffleBytes(fromBytes, w),
			Tuples:     perWorker(float64(fromTuples+toTuples), w),
		}
		peak = 2 * float64(from.MaxTupleBytes(s, density)+to.MaxTupleBytes(s, density))
	}
	if peak > float64(cl.RAMPerWorker) {
		return Out{}, false
	}
	return Out{Format: to, Features: f, PeakWorkerBytes: peak}, true
}

// Cost returns the model-predicted seconds for an already-validated Out.
func (t *Transform) Cost(m *costmodel.Model, out Out) float64 {
	if t.identity {
		return 0
	}
	return m.Predict(t.Name, out.Features)
}

func perWorker(total float64, workers int) float64 { return total / float64(workers) }

// --- registry ---

var registry []*Transform

// IdentityTransform is the no-op transformation shared by all edges whose
// producer format already matches.
var IdentityTransform *Transform

func init() {
	IdentityTransform = &Transform{ID: 0, Name: "identity", identity: true}
	registry = append(registry, IdentityTransform)
	add := func(target format.Format) {
		registry = append(registry, &Transform{
			ID:     ID(len(registry)),
			Name:   "to-" + target.String(),
			target: target,
		})
	}
	add(format.NewSingle())
	for _, s := range format.TileSizes {
		add(format.NewTile(s))
	}
	for _, s := range format.StripSizes {
		add(format.NewRowStrip(s))
	}
	for _, s := range format.StripSizes {
		add(format.NewColStrip(s))
	}
	add(format.NewCOO())
	add(format.NewCSRSingle())
	add(format.NewCSRRowStrip(1000))
}

// All returns every registered transformation (20 with the identity).
func All() []*Transform { return registry }

// ByName returns the transformation with the given name, or nil.
func ByName(name string) *Transform {
	for _, t := range registry {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// ForFormats returns the transformations usable when the optimizer's
// format universe is restricted to fs: the identity plus every re-layout
// whose target is in fs.
func ForFormats(fs []format.Format) []*Transform {
	out := []*Transform{IdentityTransform}
	in := make(map[format.Format]bool, len(fs))
	for _, f := range fs {
		in[f] = true
	}
	for _, t := range registry[1:] {
		if in[t.target] {
			out = append(out, t)
		}
	}
	return out
}
