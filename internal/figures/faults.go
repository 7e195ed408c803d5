package figures

import (
	"fmt"
	"time"

	"matopt"
	"matopt/internal/costmodel"
	"matopt/internal/dist"
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
	cl := costmodel.LocalTest(shards)
	g, inputs, err := distWorkloads()[0].build()
	if err != nil {
		t.Rows = append(t.Rows, []string{"build", "-", "-", "-", "-", "FAIL: " + err.Error()})
		return t
	}
	p, err := matopt.NewOptimizer(cl).Optimize(matopt.NewBuilderFromGraph(g))
	if err != nil {
		t.Rows = append(t.Rows, []string{"optimize", "-", "-", "-", "-", "FAIL: " + err.Error()})
		return t
	}
	want, err := matopt.NewExecutor(cl).Run(p, inputs)
	if err != nil {
		t.Rows = append(t.Rows, []string{"sequential golden", "-", "-", "-", "-", "FAIL: " + err.Error()})
		return t
	}

	var crashAll []dist.Fault
	for _, v := range g.Vertices {
		crashAll = append(crashAll, dist.Fault{Kind: dist.FaultCrash, Vertex: v.ID})
	}
	v0 := g.Vertices[0].ID
	mid := g.Vertices[len(g.Vertices)/2].ID
	one := 1
	for _, s := range []struct {
		name string
		cfg  dist.Config
	}{
		{"fault-free", dist.Config{}},
		{"crash every vertex once", dist.Config{FaultPlan: dist.NewFaultPlan(crashAll...)}},
		{fmt.Sprintf("drop one exchange at v%d", mid),
			dist.Config{FaultPlan: dist.NewFaultPlan(dist.Fault{Kind: dist.FaultDropExchange, Vertex: mid})}},
		{"random schedule (seed 7, 5 faults)", dist.Config{Faults: 5, FaultSeed: 7}},
		// Two crashes of one vertex exhaust a retry budget of one; with
		// Fallback the Executor serves the sequential result instead.
		{fmt.Sprintf("crash v%d three times (budget 1) → fallback", v0), dist.Config{
			FaultPlan: dist.NewFaultPlan(
				dist.Fault{Kind: dist.FaultCrash, Vertex: v0, Attempt: 0},
				dist.Fault{Kind: dist.FaultCrash, Vertex: v0, Attempt: 1}),
			MaxRetries: &one, Fallback: true}},
	} {
		s.cfg.Shards = shards
		t.Rows = append(t.Rows, faultRow(s.name, cl, s.cfg, p, inputs, want))
	}
	return t
}

// faultRow runs the plan on a dist Executor under cfg and reports what
// its DistReport recorded.
func faultRow(name string, cl matopt.Cluster, cfg matopt.ExecConfig,
	p *matopt.Plan, inputs map[string]*tensor.Dense, want map[int]*tensor.Dense) []string {
	x := matopt.NewExecutor(cl, matopt.WithEngineKind(matopt.DistEngine), matopt.WithExecConfig(cfg))
	t0 := time.Now()
	got, err := x.Run(p, inputs)
	wall := time.Since(t0) // of a degraded run too: the dist attempt and the sequential rerun
	if err != nil {
		return []string{name, "-", "-", "-", "-", "FAIL: " + err.Error()}
	}
	rep := x.DistReport()
	outcome := "recovered"
	switch {
	case rep.Degraded:
		outcome = "degraded to sequential"
	case rep.FaultsInjected == 0 && rep.Retries == 0:
		outcome = "clean"
	}
	return []string{name,
		fmt.Sprintf("%.1f", float64(wall)/1e6),
		fmt.Sprint(rep.FaultsInjected),
		fmt.Sprint(rep.Retries),
		identicalWord(got, want),
		outcome,
	}
}
