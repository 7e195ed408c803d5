package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"matopt"
	"matopt/internal/core"
	"matopt/internal/costmodel"
	"matopt/internal/format"
	"matopt/internal/plan"
	"matopt/internal/workload"
)

// TestPlanBytesStableOnTrees pins "equal fingerprints, same plan" where
// it used to be false: on tree-shaped graphs, where equally cheap plans
// are common. Ten fresh optimizers — no shared cache, ten searches — must
// encode one computation to the same bytes, on the 200 random trees of
// TestFrontierMatchesTreeDPOnRandomTrees and on the two trees the
// documentation leads with.
func TestPlanBytesStableOnTrees(t *testing.T) {
	graphs := map[string]*core.Graph{}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(4000 + seed))
		graphs[fmt.Sprintf("random tree %d", seed)] = core.RandomTree(rng, 4+rng.Intn(8))
	}
	var err error
	if graphs["motivating"], err = workload.MotivatingChain(); err != nil {
		t.Fatal(err)
	}
	b := matopt.NewBuilder() // examples/quickstart's scaled-down instance
	b.MatMul(b.MatMul(b.Input("matA", 100, 1000, matopt.RowStrips(10)), b.Input("matB", 1000, 100, matopt.ColStrips(10))),
		b.Input("matC", 100, 10000, matopt.ColStrips(1000)))
	graphs["quickstart"] = b.Graph()

	for name, g := range graphs {
		if !g.IsTree() {
			t.Fatalf("%s is not a tree", name)
		}
		var first []byte
		for i := 0; i < 10; i++ {
			opt := matopt.NewOptimizer(matopt.ClusterR5D(8))
			p, err := opt.Optimize(matopt.NewBuilderFromGraph(g))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			phys, _ := p.Physical()
			data, err := plan.Encode(phys, opt.Env())
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if first == nil {
				first = data
			} else if !bytes.Equal(data, first) {
				t.Errorf("%s: optimizer %d encoded a different plan than optimizer 0", name, i)
				break
			}
		}
	}
}

// TestFingerprintDigests pins Fingerprint's values: recorded from the
// fmt.Fprintf rendering this package had before the environment's lines
// were cached per Env and the vertex lines written with strconv, for the
// default-scale chain, ffnn3 and inverse graphs under both cluster
// profiles, and for an environment with a beam and fitted coefficients.
// A plan payload carries its fingerprint, so a changed digest would
// orphan every stored plan.
func TestFingerprintDigests(t *testing.T) {
	graph := func(w string) *core.Graph {
		g, err := workload.Spec{Workload: w}.Normalized().Graph()
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, c := range []struct {
		workload string
		cluster  costmodel.Cluster
		want     string
	}{
		{"chain", costmodel.LocalTest(2), "99435dc9c4efe9d950dbe37f588d9685fd3ea363b1ef640313531f2009134a82"},
		{"chain", costmodel.EC2R5D(10), "9884612e0a43f495ec695da1c8c3ada5f537d8adc31ace50be77e18b6cf2ecda"},
		{"ffnn3", costmodel.LocalTest(2), "952f967cee81d4440edff2adff737aa7eeadea8a6f340112200667b80f1697c4"},
		{"ffnn3", costmodel.EC2R5D(10), "84fffbeacd007ce88c41ae4d56d8c99deea4d8c0a7a2b3d305674834b9508b14"},
		{"inverse", costmodel.LocalTest(2), "43a22331eee91d15b6d85aae12824d02d2eea9ca558b97536b3c5f5e901a358a"},
		{"inverse", costmodel.EC2R5D(10), "76aa4bf7d7e95aacb755402e0e7be22f5b5e474e75fb41a1191109940f1b1142"},
	} {
		env := core.NewEnv(c.cluster, format.All())
		for i := 0; i < 2; i++ { // the second call reads the cached rendering
			if got := core.Fingerprint(graph(c.workload), env); got != c.want {
				t.Errorf("%s on %s, call %d: fingerprint %s, want %s", c.workload, c.cluster.Name, i, got, c.want)
			}
		}
	}

	// An Env changed after its first fingerprint is rendered again.
	g := graph("chain")
	env := core.NewEnv(costmodel.LocalTest(2), format.DenseOnly())
	plain := core.Fingerprint(g, env)
	env.MaxClassEntries = 500
	env.Model.PerKey["mm-tile"] = costmodel.Coeffs{Base: 1e-3, PerFLOP: 2.5e-10, PerTuple: 1e-7}
	env.Model.PerKey["a-key"] = costmodel.Coeffs{PerNetByte: 1e-9}
	const calibrated = "f56b41d5ea066bc9f23b9ed1731f6bf93c19462329182465d4ef4f7b539c3e93"
	if got := core.Fingerprint(g, env); got != calibrated || got == plain {
		t.Errorf("calibrated env: fingerprint %s (before the change %s), want %s", got, plain, calibrated)
	}
	env.Model.PerKey["a-key"] = costmodel.Coeffs{PerNetByte: 2e-9}
	if got := core.Fingerprint(g, env); got == calibrated {
		t.Error("a coefficient changed in place did not change the fingerprint")
	}
}
