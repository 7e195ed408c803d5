package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"matopt"
	"matopt/internal/core"
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
