package figures

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/shape"
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

type distWorkload struct {
	name   string
	graph  *core.Graph
	inputs map[string]*tensor.Dense
}

func distWorkloads() []distWorkload {
	rng := rand.New(rand.NewSource(42))
	var out []distWorkload

	sz := workload.ChainSizes{
		Name: "scaled",
		A:    shape.New(100, 300), B: shape.New(300, 500),
		C: shape.New(500, 1), D: shape.New(1, 500),
		E: shape.New(500, 100), F: shape.New(500, 100),
	}
	if g, err := workload.MatMulChain(sz); err == nil {
		out = append(out, distWorkload{name: "chain (scaled)", graph: g, inputs: map[string]*tensor.Dense{
			"A": tensor.RandNormal(rng, 100, 300), "B": tensor.RandNormal(rng, 300, 500),
			"C": tensor.RandNormal(rng, 500, 1), "D": tensor.RandNormal(rng, 1, 500),
			"E": tensor.RandNormal(rng, 500, 100), "F": tensor.RandNormal(rng, 500, 100),
		}})
	}

	cfg := workload.ScaledFFNN(workload.PaperFFNN(80000), 200)
	if g, err := workload.FFNNBackprop(cfg); err == nil {
		out = append(out, distWorkload{name: "ffnn backprop (scaled)", graph: g,
			inputs: workload.FFNNInputs(rng, cfg)})
	}
	if g, err := workload.FFNNThreePass(cfg); err == nil {
		out = append(out, distWorkload{name: "ffnn 3-pass (scaled)", graph: g,
			inputs: workload.FFNNInputs(rng, cfg)})
	}

	icfg := workload.BlockInverseConfig{Outer: 60, Inner1: 20, Inner2: 40, BlockFormat: format.NewSingle()}
	if g, err := workload.BlockInverse2(icfg); err == nil {
		n, n1 := 60, 20
		full := tensor.RandNormal(rng, 2*n, 2*n)
		for i := 0; i < 2*n; i++ {
			full.Set(i, i, full.At(i, i)+float64(2*n))
		}
		out = append(out, distWorkload{name: "block inverse (scaled)", graph: g, inputs: map[string]*tensor.Dense{
			"A11": full.Slice(0, n1, 0, n1), "A12": full.Slice(0, n1, n1, n),
			"A21": full.Slice(n1, n, 0, n1), "A22": full.Slice(n1, n, n1, n),
			"B1": full.Slice(0, n1, n, 2*n), "B2": full.Slice(n1, n, n, 2*n),
			"C1": full.Slice(n, 2*n, 0, n1), "C2": full.Slice(n, 2*n, n1, n),
			"D": full.Slice(n, 2*n, n, 2*n),
		}})
	}
	return out
}

func distRow(w distWorkload, shards int) []string {
	fail := func(err error) []string {
		return []string{w.name, "-", "-", "-", "-", "-", "-", "FAIL: " + err.Error()}
	}
	cl := costmodel.LocalTest(shards)
	env := core.NewEnv(cl, format.All())
	ann, err := core.Optimize(w.graph, env)
	if err != nil {
		return fail(err)
	}

	t0 := time.Now()
	want, err := engine.New(cl).RunCollect(ann, w.inputs)
	if err != nil {
		return fail(err)
	}
	seqWall := time.Since(t0)

	rt, err := dist.New(cl, dist.Config{Shards: shards})
	if err != nil {
		return fail(err)
	}
	got, rep, err := rt.Run(context.Background(), ann, w.inputs)
	if err != nil {
		return fail(err)
	}
	identical := len(got) == len(want)
	for id, wm := range want {
		gm := got[id]
		if gm == nil || gm.Rows != wm.Rows || gm.Cols != wm.Cols {
			identical = false
			break
		}
		for i := range wm.Data {
			if math.Float64bits(gm.Data[i]) != math.Float64bits(wm.Data[i]) {
				identical = false
				break
			}
		}
	}

	sim, err := engine.Simulate(ann, env)
	if err != nil {
		return fail(err)
	}
	ceiling := costmodel.NetBytesCeiling(sim.Features.NetBytes, shards)
	mb := func(b float64) string { return fmt.Sprintf("%.3f", b/(1<<20)) }
	ok := "yes"
	if !identical {
		ok = "NO"
	}
	return []string{
		w.name,
		fmt.Sprintf("%.1f", float64(seqWall)/1e6),
		fmt.Sprintf("%.1f", float64(rep.Wall)/1e6),
		fmt.Sprintf("%.2fx", float64(seqWall)/float64(rep.Wall)),
		mb(float64(rep.NetBytes)),
		mb(ceiling),
		mb(float64(rep.PeakBytes)),
		ok,
	}
}
