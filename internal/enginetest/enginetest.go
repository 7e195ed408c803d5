// Package enginetest is the helper tests share to execute an optimizer
// annotation on the sequential engine. The engine runs lowered plans
// only; a test that holds an annotation lowers it here, in the
// environment the annotation was optimized in.
package enginetest

import (
	"context"
	"testing"

	"matopt/internal/core"
	"matopt/internal/engine"
	"matopt/internal/plan"
	"matopt/internal/tensor"
)

// Lower lowers ann in env, retaining the keep vertices on top of the
// sinks, and fails the test if lowering does.
func Lower(t testing.TB, env *core.Env, ann *core.Annotation, keep ...int) *plan.Plan {
	t.Helper()
	p, err := plan.Lower(ann.Graph, env, ann, keep...)
	if err != nil {
		t.Fatalf("lowering: %v", err)
	}
	return p
}

// Run executes p on e and returns the dense value of every retained
// vertex keyed by vertex ID, failing the test on any error.
func Run(t testing.TB, e *engine.Engine, p *plan.Plan, inputs map[string]*tensor.Dense) map[int]*tensor.Dense {
	t.Helper()
	outs, err := e.RunPlan(context.Background(), p, inputs)
	if err != nil {
		t.Fatalf("sequential run: %v", err)
	}
	return outs
}
