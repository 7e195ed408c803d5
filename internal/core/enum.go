package core

import (
	"matopt/internal/format"
	"matopt/internal/impl"
	"matopt/internal/trans"
)

// transOption is one feasible way to re-layout a vertex's output from a
// given physical format: the transformation, the format it produces, and
// its predicted cost.
type transOption struct {
	tr   *trans.Transform
	pout format.Format
	cost float64
}

// transOptions enumerates the feasible transformations of v's matrix out
// of format pin, including the free identity. Results are memoized per
// (vertex, pin) in the cache owned by the calling optimizer run.
type transCache map[transCacheKey][]transOption

type transCacheKey struct {
	vertex int
	pin    format.Format
}

func (env *Env) transOptions(cache transCache, v *Vertex, pin format.Format) []transOption {
	key := transCacheKey{vertex: v.ID, pin: pin}
	if opts, ok := cache[key]; ok {
		return opts
	}
	opts := []transOption{{tr: trans.IdentityTransform, pout: pin}}
	for _, tr := range env.Transforms {
		if tr.Identity() {
			continue
		}
		out, ok := tr.Apply(v.Shape, v.Density, pin, env.Cluster)
		if !ok {
			continue
		}
		opts = append(opts, transOption{tr: tr, pout: out.Format, cost: tr.Cost(env.Model, out)})
	}
	cache[key] = opts
	return opts
}

// eachDelivery walks, in a fixed order, every way to hand v its
// arguments: one option of transOptions per argument, out of the format
// pinOf reports for that argument's producer. visit sees the delivered
// formats, the edge decisions and their summed cost; the three slices
// are reused between calls.
func (env *Env) eachDelivery(cache transCache, v *Vertex, pinOf func(in *Vertex) format.Format,
	visit func(pouts []format.Format, edges []EdgeChoice, trCost float64)) {
	pouts := make([]format.Format, len(v.Ins))
	edges := make([]EdgeChoice, len(v.Ins))
	var args func(j int, trCost float64)
	args = func(j int, trCost float64) {
		if j == len(v.Ins) {
			visit(pouts, edges, trCost)
			return
		}
		in := v.Ins[j]
		for _, to := range env.transOptions(cache, in, pinOf(in)) {
			pouts[j] = to.pout
			edges[j] = EdgeChoice{Trans: to.tr, Cost: to.cost}
			args(j+1, trCost+to.cost)
		}
	}
	args(0, 0)
}

// applyImpl evaluates implementation im on vertex v with the given
// (already transformed) input formats. It returns the output format and
// the implementation's predicted cost; ok is false when the
// implementation is ⊥ on these inputs or its output format falls outside
// the environment's format universe.
func (env *Env) applyImpl(v *Vertex, im *impl.Impl, pouts []format.Format) (format.Format, float64, bool) {
	ins := vertexInputs(v)
	for j := range ins {
		ins[j].Format = pouts[j]
	}
	out, _, cost, ok := env.applyInputs(v, im, ins)
	return out, cost, ok
}

// vertexInputs describes v's arguments, their formats left for the
// caller to fill in.
func vertexInputs(v *Vertex) []impl.Input {
	ins := make([]impl.Input, len(v.Ins))
	for j, in := range v.Ins {
		ins[j] = impl.Input{Shape: in.Shape, Density: in.Density}
	}
	return ins
}

// applyInputs is applyImpl on arguments already described; Frontier
// shares one description among all the implementations it evaluates on a
// combination of delivered formats. It also returns the output format's
// index in env.Formats.
func (env *Env) applyInputs(v *Vertex, im *impl.Impl, ins []impl.Input) (format.Format, int, float64, bool) {
	out, ok := im.Apply(v.Op, ins, v.Shape, v.Density, env.Cluster)
	if !ok {
		return format.Format{}, -1, 0, false
	}
	at := env.formatIndex(out.Format)
	if at < 0 {
		return format.Format{}, -1, 0, false
	}
	return out.Format, at, im.Cost(env.Model, out), true
}
