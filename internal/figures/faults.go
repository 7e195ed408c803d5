package figures

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
	"matopt/internal/engine"
	"matopt/internal/format"
	"matopt/internal/tensor"
)

// FaultRecovery runs the scaled chain workload under a set of seeded
// fault schedules and shows that every recovered run stays bit-identical
// to the sequential engine, that the report accounts for each injected
// fault and retry, and that an unrecoverable schedule degrades to the
// sequential engine instead of failing.
func FaultRecovery(shards int) Table {
	t := Table{
		Name:  "faults",
		Title: fmt.Sprintf("fault injection and recovery on the dist runtime (%d shards, scaled chain)", shards),
		Header: []string{"schedule", "wall ms", "faults injected", "retries",
			"identical", "outcome"},
	}
	w := distWorkloads()[0]
	cl := costmodel.LocalTest(shards)
	env := core.NewEnv(cl, format.All())
	ann, err := core.Optimize(w.graph, env)
	if err != nil {
		t.Rows = append(t.Rows, []string{"optimize", "-", "-", "-", "-", "FAIL: " + err.Error()})
		return t
	}
	want, err := engine.New(cl).RunCollect(ann, w.inputs)
	if err != nil {
		t.Rows = append(t.Rows, []string{"sequential golden", "-", "-", "-", "-", "FAIL: " + err.Error()})
		return t
	}

	var crashAll []dist.Fault
	for _, v := range ann.Graph.Vertices {
		crashAll = append(crashAll, dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
	}
	mid := ann.Graph.Vertices[len(ann.Graph.Vertices)/2].ID
	straggler := func() *dist.FaultPlan {
		return dist.NewFaultPlan(dist.Fault{Kind: dist.FaultSlowShard, Shard: shards - 1, Delay: 200 * time.Microsecond})
	}
	nodeLoss := func() *dist.FaultPlan {
		return dist.NewFaultPlan(dist.Fault{Kind: dist.FaultNodeLoss, Vertex: mid})
	}
	for _, s := range []struct {
		name string
		cfg  dist.Config
	}{
		{"fault-free", dist.Config{}},
		{"crash every vertex once", dist.Config{FaultPlan: dist.NewFaultPlan(crashAll...)}},
		{fmt.Sprintf("drop one exchange at v%d", mid),
			dist.Config{FaultPlan: dist.NewFaultPlan(dist.Fault{Kind: dist.FaultDropExchange, Vertex: mid})}},
		{"straggler shard (+200µs/task)", dist.Config{FaultPlan: straggler()}},
		{fmt.Sprintf("node loss at v%d (cascading recompute)", mid), dist.Config{FaultPlan: nodeLoss()}},
		{"random schedule (seed 7, 5 faults)", dist.Config{Faults: 5, FaultSeed: 7}},
		{fmt.Sprintf("node loss at v%d + checkpointing", mid), dist.Config{FaultPlan: nodeLoss(), Checkpoint: true}},
		{"straggler shard + speculation", dist.Config{FaultPlan: straggler(), Speculate: true}},
	} {
		s.cfg.Shards = shards
		t.Rows = append(t.Rows, faultRow(s.name, cl, s.cfg, ann, w.inputs, want))
	}
	t.Rows = append(t.Rows, fallbackRow(cl, shards, ann, w.inputs, want))
	return t
}

func faultRow(name string, cl costmodel.Cluster, cfg dist.Config,
	ann *core.Annotation, inputs map[string]*tensor.Dense, want map[int]*tensor.Dense) []string {
	rt, err := dist.New(cl, cfg)
	if err != nil {
		return []string{name, "-", "-", "-", "-", "FAIL: " + err.Error()}
	}
	got, rep, err := rt.Run(context.Background(), ann, inputs)
	if err != nil {
		return []string{name, "-", fmt.Sprint(rep.FaultsInjected), fmt.Sprint(rep.Retries),
			"-", "FAIL: " + err.Error()}
	}
	outcome := "recovered"
	if rep.FaultsInjected == 0 && rep.Retries == 0 && rep.Cascades == 0 {
		outcome = "clean"
	}
	if rep.Cascades > 0 {
		outcome += fmt.Sprintf(", %d cascades (depth %d)", rep.Cascades, rep.MaxCascadeDepth)
	}
	if rep.CheckpointVertices > 0 {
		outcome += fmt.Sprintf(", %d checkpoints", rep.CheckpointVertices)
	}
	if rep.SpeculativeLaunches > 0 {
		outcome += fmt.Sprintf(", %d/%d speculative wins", rep.SpeculativeWins, rep.SpeculativeLaunches)
	}
	return []string{name,
		fmt.Sprintf("%.1f", float64(rep.Wall)/1e6),
		fmt.Sprint(rep.FaultsInjected),
		fmt.Sprint(rep.Retries),
		identicalWord(got, want),
		outcome,
	}
}

// fallbackRow exhausts the retry budget on one vertex and serves the
// sequential result instead, the way an Executor with Fallback does.
func fallbackRow(cl costmodel.Cluster, shards int,
	ann *core.Annotation, inputs map[string]*tensor.Dense, want map[int]*tensor.Dense) []string {
	name := "crash v0 three times (budget 1) → fallback"
	v := ann.Graph.Vertices[0].ID
	plan := dist.NewFaultPlan(
		dist.Fault{Kind: dist.FaultCrash, Vertex: v, Attempt: 0},
		dist.Fault{Kind: dist.FaultCrash, Vertex: v, Attempt: 1},
	)
	one := 1
	rt, err := dist.New(cl, dist.Config{Shards: shards, FaultPlan: plan, MaxRetries: &one})
	if err != nil {
		return []string{name, "-", "-", "-", "-", "FAIL: " + err.Error()}
	}
	_, rep, err := rt.Run(context.Background(), ann, inputs)
	if !errors.Is(err, dist.ErrRetriesExhausted) {
		return []string{name, "-", "-", "-", "-", fmt.Sprintf("FAIL: want ErrRetriesExhausted, got %v", err)}
	}
	t0 := time.Now()
	got, err := engine.New(cl).RunCollect(ann, inputs)
	if err != nil {
		return []string{name, "-", "-", "-", "-", "FAIL: " + err.Error()}
	}
	return []string{name,
		fmt.Sprintf("%.1f", float64(time.Since(t0))/1e6),
		fmt.Sprint(rep.FaultsInjected),
		fmt.Sprint(rep.Retries),
		identicalWord(got, want),
		"degraded to sequential",
	}
}

func identicalWord(got, want map[int]*tensor.Dense) string {
	if len(got) != len(want) {
		return "NO"
	}
	for id, wm := range want {
		gm := got[id]
		if gm == nil || gm.Rows != wm.Rows || gm.Cols != wm.Cols {
			return "NO"
		}
		for i := range wm.Data {
			if math.Float64bits(gm.Data[i]) != math.Float64bits(wm.Data[i]) {
				return "NO"
			}
		}
	}
	return "yes"
}
