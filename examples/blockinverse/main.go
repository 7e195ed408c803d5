// Command blockinverse runs the two-level block-wise matrix inverse of
// §8.2 (Figure 9): a Graybill block-inverse identity applied at two
// nesting levels, optimized by the frontier algorithm, then executed at
// a reduced scale and checked against a direct inverse.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"matopt/internal/baseline"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/plan"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

func main() {
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())

	// Paper-scale plan quality (simulated).
	g, err := workload.BlockInverse2(workload.PaperBlockInverse())
	if err != nil {
		log.Fatal(err)
	}
	auto, err := core.Optimize(g, env)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := engine.Simulate(auto, env)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("two-level 20K×20K block inverse on 10 workers (%d vertices):\n", len(g.Vertices))
	fmt.Printf("  %-9s %6.0fs (optimizer %.1fs)\n", "auto:", rep.Seconds, auto.OptSeconds)
	show := func(name string, ann *core.Annotation, err error) {
		if err != nil {
			fmt.Printf("  %-9s Fail (%v)\n", name+":", err)
			return
		}
		r, err := engine.Simulate(ann, env)
		if err != nil {
			fmt.Printf("  %-9s Fail\n", name+":")
			return
		}
		fmt.Printf("  %-9s %6.0fs\n", name+":", r.Seconds)
	}
	hw, err := baseline.HandWritten(g, env)
	show("hand", hw, err)
	at, err := baseline.AllTile(g, env)
	show("all-tile", at, err)

	// Execute a reduced instance and validate against a direct inverse.
	cfg := workload.BlockInverseConfig{Outer: 60, Inner1: 20, Inner2: 40, BlockFormat: format.NewSingle()}
	sg, err := workload.BlockInverse2(cfg)
	if err != nil {
		log.Fatal(err)
	}
	small := core.NewEnv(costmodel.LocalTest(3), format.All())
	sann, err := core.Optimize(sg, small)
	if err != nil {
		log.Fatal(err)
	}
	inputs, full := workload.BlockInverseInputs(rand.New(rand.NewSource(3)), cfg)
	// The outer Schur-complement inverse is D̄, the bottom-right block.
	// It is an intermediate (not a sink), so the lowering must keep it.
	sinvID := -1
	for _, v := range sg.Vertices {
		if !v.IsSource && v.Op.Kind.String() == "inverse" {
			sinvID = v.ID
		}
	}
	sp, err := plan.Lower(sg, small, sann, sinvID)
	if err != nil {
		log.Fatal(err)
	}
	eng := engine.New(small.Cluster)
	outs, err := eng.RunPlan(context.Background(), sp, inputs)
	if err != nil {
		log.Fatal(err)
	}
	wantInv, err := tensor.Inverse(full)
	if err != nil {
		log.Fatal(err)
	}
	got := outs[sinvID]
	n := int(cfg.Outer)
	diff := tensor.MaxAbsDiff(got, wantInv.Slice(n, 2*n, n, 2*n))
	fmt.Printf("\nreduced-scale execution: D̄ block max deviation from direct inverse = %.2e\n", diff)
}
