// Command distrun executes one optimized plan on the sharded dist
// runtime through the public API: the same computation runs on the
// sequential reference engine and on the dist engine, the outputs are
// compared bit for bit, and the dist run's measured shuffle traffic and
// per-shard busy times are printed. Goroutine shards stand in for
// cluster nodes, so the byte meters report what a real deployment would
// put on the wire.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"matopt"
	"matopt/internal/tensor"
)

func main() {
	// A two-layer dense network forward pass, scaled to run in-process.
	b := matopt.NewBuilder()
	x := b.Input("X", 256, 2000, matopt.RowStrips(64))
	w1 := b.Input("W1", 2000, 400, matopt.Tiles(200))
	w2 := b.Input("W2", 400, 10, matopt.Single())
	h := b.ReLU(b.MatMul(x, w1))
	out := b.MatMul(h, w2)

	opt := matopt.NewOptimizer(matopt.ClusterR5D(4))
	plan, err := opt.Optimize(b, out)
	if err != nil {
		log.Fatalf("optimize: %v", err)
	}
	fmt.Print(plan.Describe())

	rng := rand.New(rand.NewSource(1))
	inputs := map[string]*matopt.Dense{
		"X":  tensor.RandNormal(rng, 256, 2000),
		"W1": tensor.RandNormal(rng, 2000, 400),
		"W2": tensor.RandNormal(rng, 400, 10),
	}

	// Reference: the sequential engine.
	seq := matopt.NewExecutor(matopt.ClusterR5D(4))
	want, err := seq.RunSingle(plan, inputs)
	if err != nil {
		log.Fatalf("sequential run: %v", err)
	}

	// The dist engine: shards every relation across 4 worker shards and
	// meters every byte that crosses a shard boundary. The other run-time
	// knobs are fields of matopt.ExecConfig (matopt.WithExecConfig;
	// DESIGN.md §17 has the table).
	ex := matopt.NewExecutor(matopt.ClusterR5D(4),
		matopt.WithEngineKind(matopt.DistEngine), matopt.WithShards(4))
	got, err := ex.RunSingle(plan, inputs)
	if err != nil {
		log.Fatalf("dist run: %v", err)
	}

	if !tensor.BitEqual(got, want) {
		log.Fatal("dist output differs from the sequential engine")
	}
	fmt.Printf("\ndist output (%dx%d) is bit-identical to the sequential engine ✓\n\n",
		got.Rows, got.Cols)
	fmt.Print(ex.DistReport())
}
