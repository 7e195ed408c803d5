package figures

import (
	"fmt"
	"math/rand"
	"time"

	"matopt"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/tensor"
	"matopt/internal/workload"
)

// DistValidation executes scaled-down versions of the evaluation
// workloads on both runtimes: the sequential reference engine and the
// sharded dist runtime. Every row verifies bit-identical outputs and
// compares the dist runtime's measured cross-shard traffic with the
// cost model's worst-case ceiling (per-link NetBytes × link count) for
// the same plan on a cluster of the same size.
func DistValidation(shards int) Table {
	t := Table{
		Name:  "dist",
		Title: fmt.Sprintf("dist runtime vs sequential engine (%d shards, scaled workloads)", shards),
		Header: []string{"workload", "seq ms", "dist ms", "speedup",
			"measured net MB", "model ceiling MB", "peak MB", "identical"},
	}
	for _, w := range distWorkloads() {
		t.Rows = append(t.Rows, distRow(w, shards))
	}
	return t
}

// distWorkload is one scaled evaluation workload the dist and faults
// tables execute.
type distWorkload struct {
	name  string
	build func() (*core.Graph, map[string]*tensor.Dense, error)
}

// distWorkloads lists them. Three are catalogue entries (workload.Spec);
// the full FFNN backpropagation is not one, so its row builds straight
// from the generator.
func distWorkloads() []distWorkload {
	spec := func(w string, scale int64) func() (*core.Graph, map[string]*tensor.Dense, error) {
		return workload.Spec{Workload: w, Scale: scale, Seed: 42}.Normalized().Build
	}
	return []distWorkload{
		{"chain (scaled)", spec("chain", 100)},
		{"ffnn backprop (scaled)", func() (*core.Graph, map[string]*tensor.Dense, error) {
			cfg := workload.ScaledFFNN(workload.PaperFFNN(80000), 200)
			g, err := workload.FFNNBackprop(cfg)
			return g, workload.FFNNInputs(rand.New(rand.NewSource(42)), cfg), err
		}},
		{"ffnn 3-pass (scaled)", spec("ffnn3", 200)},
		{"block inverse (scaled)", spec("inverse", 166)},
	}
}

// distRow drives one workload the way any caller does: the public
// Optimizer plans it, a sequential and a dist Executor run the same
// plan, and the simulator prices it for the traffic ceiling.
func distRow(w distWorkload, shards int) []string {
	fail := func(err error) []string {
		return []string{w.name, "-", "-", "-", "-", "-", "-", "FAIL: " + err.Error()}
	}
	g, inputs, err := w.build()
	if err != nil {
		return fail(err)
	}
	cl := costmodel.LocalTest(shards)
	p, err := matopt.NewOptimizer(cl).Optimize(matopt.NewBuilderFromGraph(g))
	if err != nil {
		return fail(err)
	}

	t0 := time.Now()
	want, err := matopt.NewExecutor(cl).Run(p, inputs)
	if err != nil {
		return fail(err)
	}
	seqWall := time.Since(t0)

	x := matopt.NewExecutor(cl, matopt.WithEngineKind(matopt.DistEngine), matopt.WithShards(shards))
	got, err := x.Run(p, inputs)
	if err != nil {
		return fail(err)
	}
	rep := x.DistReport()

	sim, err := matopt.Simulate(p)
	if err != nil {
		return fail(err)
	}
	ceiling := costmodel.NetBytesCeiling(sim.Features.NetBytes, shards)
	mb := func(b float64) string { return fmt.Sprintf("%.3f", b/(1<<20)) }
	return []string{
		w.name,
		fmt.Sprintf("%.1f", float64(seqWall)/1e6),
		fmt.Sprintf("%.1f", float64(rep.Wall)/1e6),
		fmt.Sprintf("%.2fx", float64(seqWall)/float64(rep.Wall)),
		mb(float64(rep.NetBytes)),
		mb(ceiling),
		mb(float64(rep.PeakBytes)),
		identicalWord(got, want),
	}
}

// identicalWord is the tables' "identical" cell: "yes" when got holds
// exactly want's matrices, bit for bit.
func identicalWord(got, want map[int]*tensor.Dense) string {
	if len(got) != len(want) {
		return "NO"
	}
	for id, wm := range want {
		if !tensor.BitEqual(got[id], wm) {
			return "NO"
		}
	}
	return "yes"
}
