package dist

import (
	"maps"
	"math"
	"math/bits"
	"sort"
	"testing"

	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/plan"
	"matopt/internal/workload"
)

// parentRecovery is the oracle: plan.Lower's recovery annotation before
// placement moved into this runtime (annotateRecovery), writing the
// per-node numbers into a side table indexed by node ID instead of the
// plan's nodes.
type parentRecovery struct {
	RecomputeSeconds, MaterializeSeconds float64
	Depth                                int
}

func parentAnnotateRecovery(p *plan.Plan, cl costmodel.Cluster) []parentRecovery {
	rec := make([]parentRecovery, len(p.Nodes))
	nv := len(p.Graph.Vertices)
	ownCost := make([]float64, nv)
	for _, n := range p.Nodes {
		switch n.Kind {
		case plan.KindScan, plan.KindCompute, plan.KindRelayout:
			ownCost[n.Vertex] += n.Cost
		}
	}
	words := (nv + 63) / 64
	cones := make([]uint64, nv*words)
	for _, v := range p.Graph.Vertices {
		c := cones[v.ID*words : (v.ID+1)*words]
		c[v.ID/64] |= 1 << (v.ID % 64)
		depth := 0
		for _, in := range v.Ins {
			for w, x := range cones[in.ID*words : (in.ID+1)*words] {
				c[w] |= x
			}
			d := rec[p.NodeOfVertex[in.ID]].Depth + 1
			if d > depth {
				depth = d
			}
		}
		n := &rec[p.NodeOfVertex[v.ID]]
		n.Depth = depth
		for w, x := range c {
			for ; x != 0; x &= x - 1 {
				n.RecomputeSeconds += ownCost[w*64+bits.TrailingZeros64(x)]
			}
		}
		n.MaterializeSeconds = costmodel.MaterializeSeconds(cl, float64(p.Nodes[p.NodeOfVertex[v.ID]].OutBytes()))
	}
	return rec
}

// parentCheckpointPins is the parent's checkpointPins over the oracle's
// annotation.
func parentCheckpointPins(p *plan.Plan, cl costmodel.Cluster, multiple float64, budget int64) map[int]bool {
	rec := parentAnnotateRecovery(p, cl)
	retained := make(map[int]bool, len(p.Retained))
	for _, id := range p.Retained {
		retained[id] = true
	}
	var cands []*plan.Node
	for _, n := range p.Nodes {
		if n.Kind != plan.KindCompute || retained[n.Vertex] {
			continue
		}
		if costmodel.ShouldCheckpoint(rec[n.ID].RecomputeSeconds, rec[n.ID].MaterializeSeconds, multiple) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	pins := make(map[int]bool, len(cands))
	if budget <= 0 {
		for _, n := range cands {
			pins[n.Vertex] = true
		}
		return pins
	}
	sort.Slice(cands, func(i, j int) bool {
		a, b := rec[cands[i].ID], rec[cands[j].ID]
		if a.Depth != b.Depth {
			return a.Depth > b.Depth
		}
		if a.RecomputeSeconds != b.RecomputeSeconds {
			return a.RecomputeSeconds > b.RecomputeSeconds
		}
		return cands[i].Vertex < cands[j].Vertex
	})
	var used int64
	for _, n := range cands {
		b := n.OutBytes()
		if used+b > budget {
			continue
		}
		used += b
		pins[n.Vertex] = true
	}
	return pins
}

// checkpointPlans lowers the chain, ffnn3 and inverse workloads at paper
// scale and at their executable default scale on a ten-worker cluster.
func checkpointPlans(t *testing.T) (map[string]*plan.Plan, costmodel.Cluster) {
	t.Helper()
	env := core.NewEnv(costmodel.EC2R5D(10), format.DenseOnly())
	plans := make(map[string]*plan.Plan)
	for _, w := range []string{"chain", "ffnn3", "inverse"} {
		spec := workload.Spec{Workload: w}.Normalized()
		for scale, build := range map[string]func() (*core.Graph, error){"paper": spec.PaperGraph, "scaled": spec.Graph} {
			g, err := build()
			if err != nil {
				t.Fatal(err)
			}
			ann, err := core.Optimize(g, env)
			if err != nil {
				t.Fatal(err)
			}
			p, err := plan.Lower(g, env, ann)
			if err != nil {
				t.Fatal(err)
			}
			plans[w+"/"+scale] = p
		}
	}
	return plans, env.Cluster
}

// TestCheckpointPinsMatchParent: placement decided in the runtime pins
// exactly what the plan's lowering-time annotation made the parent pin,
// for every plan × multiple × budget, and prices each vertex with the
// same bits. Twenty computations on one plan then return the same pins
// and the same bits of every cone sum — pins are thresholded and ordered
// on them, so equal up to rounding is not enough.
func TestCheckpointPinsMatchParent(t *testing.T) {
	plans, cl := checkpointPlans(t)
	var pinned, subset bool
	for name, p := range plans {
		oracle := parentAnnotateRecovery(p, cl)
		recompute, depth := recoveryCosts(p)
		for _, v := range p.Graph.Vertices {
			want := oracle[p.NodeOfVertex[v.ID]]
			if math.Float64bits(recompute[v.ID]) != math.Float64bits(want.RecomputeSeconds) || depth[v.ID] != want.Depth {
				t.Fatalf("%s v%d: recompute %x depth %d, the parent %x depth %d", name, v.ID,
					math.Float64bits(recompute[v.ID]), depth[v.ID], math.Float64bits(want.RecomputeSeconds), want.Depth)
			}
		}
		for _, multiple := range []float64{0, 1e-9} {
			all := parentCheckpointPins(p, cl, multiple, 0)
			for _, budget := range []int64{0, 1, 1 << 20, 64 << 20} {
				r := &run{cfg: Config{Checkpoint: true, CheckpointMultiple: multiple, CheckpointBudget: budget}, cl: cl, pl: p}
				got, want := r.checkpointPins(), parentCheckpointPins(p, cl, multiple, budget)
				if !maps.Equal(got, want) {
					t.Errorf("%s multiple %g budget %d: pins %v, the parent %v", name, multiple, budget, got, want)
				}
				pinned = pinned || len(want) > 0
				subset = subset || (len(want) > 0 && len(want) < len(all))
			}
		}
	}
	if !pinned || !subset {
		t.Fatalf("no case pinned anything (%v) or a budget never chose a strict subset (%v): the comparison is vacuous", pinned, subset)
	}

	p := plans["ffnn3/scaled"]
	r := &run{cfg: Config{Checkpoint: true, CheckpointMultiple: 1e-9, CheckpointBudget: 1 << 20}, cl: cl, pl: p}
	first, _ := recoveryCosts(p)
	pins := r.checkpointPins()
	for i := 1; i < 20; i++ {
		recompute, _ := recoveryCosts(p)
		for v, sum := range recompute {
			if math.Float64bits(sum) != math.Float64bits(first[v]) {
				t.Fatalf("computation %d v%d: recompute %x, the first %x", i, v, math.Float64bits(sum), math.Float64bits(first[v]))
			}
		}
		if got := r.checkpointPins(); !maps.Equal(got, pins) {
			t.Fatalf("computation %d pins %v, the first %v", i, got, pins)
		}
	}
}
