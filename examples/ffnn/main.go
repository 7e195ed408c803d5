// Command ffnn optimizes the paper's feed-forward neural network
// training step (§8.2) at several hidden-layer sizes, comparing the
// auto-generated physical plan against the all-tile heuristic and a
// hand-written expert plan — a miniature of Figures 6 and 7. It then
// trains a scaled-down network for a few steps on real data to show the
// plans are executable end to end.
package main

import (
	"fmt"
	"log"

	"matopt"
	"matopt/internal/baseline"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/workload"
)

func main() {
	env := core.NewEnv(costmodel.EC2R5D(10), format.All())
	fmt.Println("FFNN forward + backprop to W2 on 10 workers (simulated seconds):")
	fmt.Printf("%10s %12s %12s %12s\n", "hidden", "auto", "hand", "all-tile")
	for _, hidden := range []int64{10000, 40000, 80000} {
		g, err := workload.FFNNW2Update(workload.PaperFFNN(hidden))
		if err != nil {
			log.Fatal(err)
		}
		auto, err := core.Optimize(g, env)
		if err != nil {
			log.Fatal(err)
		}
		show := func(ann *core.Annotation, err error) string {
			if err != nil {
				return "Fail"
			}
			rep, err := engine.Simulate(ann, env)
			if err != nil {
				return "Fail"
			}
			return fmt.Sprintf("%.0fs", rep.Seconds)
		}
		fmt.Printf("%10d %12s %12s %12s\n", hidden,
			show(auto, nil),
			show(baseline.HandWritten(g, env)),
			show(baseline.AllTile(g, env)))
	}

	// Train a scaled-down instance for real: three optimizer-planned
	// update steps of W2.
	fmt.Println("\nExecuting three scaled-down W2 update steps for real:")
	g, inputs, err := workload.Spec{Workload: "ffnn", Hidden: 80000, Scale: 400, Seed: 7}.Build()
	if err != nil {
		log.Fatal(err)
	}
	small := costmodel.LocalTest(4)
	p, err := matopt.NewOptimizer(small).Optimize(matopt.NewBuilderFromGraph(g))
	if err != nil {
		log.Fatal(err)
	}
	exec := matopt.NewExecutor(small)
	for step := 1; step <= 3; step++ {
		w2, err := exec.RunSingle(p, inputs)
		if err != nil {
			log.Fatal(err)
		}
		var norm float64
		for _, v := range w2.Data {
			norm += v * v
		}
		fmt.Printf("  step %d: updated W2 is %dx%d, ‖W2‖² = %.1f\n", step, w2.Rows, w2.Cols, norm)
		inputs["W2"] = w2 // feed the updated weights back in
	}
}
