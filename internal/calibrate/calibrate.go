// Package calibrate implements the paper's installation-time cost-model
// calibration (§7): it executes a battery of small single-operation
// plans for real through the engine, pairs each measured wall time with
// the operation's analytic feature vector, and fits per-operation
// regression coefficients by ordinary least squares.
//
// Because the in-process engine has no physical network, only the
// compute- and tuple-rate coefficients are measurable here; the
// network and disk coefficients retain the cluster profile's analytic
// values (the same split a single-node installation of the paper's
// system would face). Fitted models feed back into the optimizer via
// core.Env.Model.
package calibrate

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/op"
	"matopt/internal/plan"
	"matopt/internal/shape"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// microCase is one calibration computation: a tiny graph with a pinned
// output format so a specific implementation is exercised.
type microCase struct {
	name   string
	rows   int64
	inner  int64
	cols   int64
	fa, fb format.Format
	kind   op.Kind
	target format.Format
}

// cases returns the calibration battery: each dense matmul strategy and
// elementwise/transpose path at a few sizes.
func cases() []microCase {
	var out []microCase
	sizes := [][3]int64{{200, 300, 200}, {400, 400, 400}, {600, 300, 500}, {800, 800, 200}}
	for _, s := range sizes {
		r, k, c := s[0], s[1], s[2]
		out = append(out,
			microCase{"mm single", r, k, c, format.NewSingle(), format.NewSingle(), op.MatMul, format.NewSingle()},
			microCase{"mm tiles", r, k, c, format.NewTile(100), format.NewTile(100), op.MatMul, format.NewTile(100)},
			microCase{"mm strips", r, k, c, format.NewRowStrip(100), format.NewColStrip(100), op.MatMul, format.NewTile(100)},
			microCase{"mm inner", r, k, c, format.NewColStrip(100), format.NewRowStrip(100), op.MatMul, format.NewSingle()},
			microCase{"add tiles", r, k, 0, format.NewTile(100), format.NewTile(100), op.Add, format.NewTile(100)},
			microCase{"transpose", r, k, 0, format.NewTile(100), format.Format{}, op.Transpose, format.NewTile(100)},
		)
	}
	return out
}

// Collect executes the calibration battery rounds times and returns the
// (implementation/transformation, features, measured seconds) samples.
func Collect(rng *rand.Rand, cl costmodel.Cluster, rounds int) ([]costmodel.Sample, error) {
	env := core.NewEnv(cl, format.All())
	var samples []costmodel.Sample
	for round := 0; round < rounds; round++ {
		for _, mc := range cases() {
			g := core.NewGraph()
			var vs []*core.Vertex
			a := g.Input("a", shape.New(mc.rows, mc.inner), 1, mc.fa)
			vs = append(vs, a)
			o := op.Op{Kind: mc.kind}
			if o.Arity() == 2 {
				var bs shape.Shape
				if mc.kind == op.MatMul {
					bs = shape.New(mc.inner, mc.cols)
				} else {
					bs = shape.New(mc.rows, mc.inner)
				}
				vs = append(vs, g.Input("b", bs, 1, mc.fb))
			}
			out, err := g.Apply(o, vs...)
			if err != nil {
				return nil, fmt.Errorf("calibrate %q: %w", mc.name, err)
			}
			ann, err := core.GreedyAnnotate(g, env, map[int]format.Format{out.ID: mc.target})
			if err != nil {
				return nil, fmt.Errorf("calibrate %q: %w", mc.name, err)
			}
			inputs := map[string]*tensor.Dense{
				"a": tensor.RandNormal(rng, int(mc.rows), int(mc.inner)),
			}
			if o.Arity() == 2 {
				if mc.kind == op.MatMul {
					inputs["b"] = tensor.RandNormal(rng, int(mc.inner), int(mc.cols))
				} else {
					inputs["b"] = tensor.RandNormal(rng, int(mc.rows), int(mc.inner))
				}
			}
			p, elapsed, err := timeRun(env, ann, inputs)
			if err != nil {
				return nil, fmt.Errorf("calibrate %q: %w", mc.name, err)
			}
			samples = append(samples, planSamples(p, elapsed)...)
		}
	}
	return samples, nil
}

// timeRun lowers ann in env, the environment it was annotated in, and
// returns the plan with the wall seconds the sequential engine takes to
// execute it.
func timeRun(env *core.Env, ann *core.Annotation, inputs map[string]*tensor.Dense) (*plan.Plan, float64, error) {
	p, err := plan.Lower(ann.Graph, env, ann)
	if err != nil {
		return nil, 0, err
	}
	start := time.Now()
	if _, err := engine.New(env.Cluster).RunPlan(context.Background(), p, inputs); err != nil {
		return nil, 0, err
	}
	return p, time.Since(start).Seconds(), nil
}

// planSamples attributes a measured plan time to its compute operators
// in proportion to their modeled share, yielding one sample per
// operator. For the single-op calibration plans this is dominated by one
// implementation (plus any forced input transformations).
func planSamples(p *plan.Plan, measured float64) []costmodel.Sample {
	total := p.Ann.Total()
	if total <= 0 {
		return nil
	}
	var out []costmodel.Sample
	for _, n := range p.Nodes {
		if n.Kind == plan.KindCompute {
			out = append(out, costmodel.Sample{
				Key:      n.Name,
				Features: n.Features,
				Seconds:  measured * n.Cost / total,
			})
		}
	}
	return out
}

// Fit runs the whole calibration: collect samples, fit the model, and
// return it with the keys that received per-operation coefficients.
func Fit(rng *rand.Rand, cl costmodel.Cluster, rounds int) (*costmodel.Model, []string, error) {
	samples, err := Collect(rng, cl, rounds)
	if err != nil {
		return nil, nil, err
	}
	m := costmodel.NewModel(cl)
	fitted := m.Fit(samples, 6)
	return m, fitted, nil
}

// SmokeWorkload optimizes and executes a scaled-down FFNN under the
// calibrated model, returning predicted and measured seconds — the
// post-calibration sanity check cmd/calibrate prints.
func SmokeWorkload(rng *rand.Rand, cl costmodel.Cluster, m *costmodel.Model) (predicted, measured float64, err error) {
	cfg := workload.ScaledFFNN(workload.PaperFFNN(80000), 400)
	g, err := workload.FFNNW2Update(cfg)
	if err != nil {
		return 0, 0, err
	}
	env := core.NewEnv(cl, format.All())
	env.Model = m
	ann, err := core.Optimize(g, env)
	if err != nil {
		return 0, 0, err
	}
	_, measured, err = timeRun(env, ann, workload.FFNNInputs(rng, cfg))
	return ann.Total(), measured, err
}
