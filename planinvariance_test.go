package matopt

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"matopt/internal/costmodel"
	"matopt/internal/tensor"
)

// TestPlanCacheEngineInvariance is the regression test for engine-safe
// plan-cache reuse: the lowered physical IR carries no engine kind and
// no shard count, so a plan optimized once (and cached) must replay
// bit-identically under the sequential engine and under the dist
// runtime at every shard count. If lowering ever grows an
// engine-dependent decision without the cache key growing with it, the
// dist replays here diverge from the sequential golden and this test
// fails.
func TestPlanCacheEngineInvariance(t *testing.T) {
	build := func() *Builder {
		b := NewBuilder()
		x := b.Input("X", 120, 400, RowStrips(100))
		w := b.Input("W", 400, 80, Single())
		h := b.ReLU(b.MatMul(x, w))
		b.MatMul(b.Transpose(h), h)
		return b
	}
	cl := costmodel.LocalTest(3)
	o := NewOptimizer(cl)
	cold, err := o.Optimize(build())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	inputs := map[string]*Dense{
		"X": tensor.RandNormal(rng, 120, 400),
		"W": tensor.RandNormal(rng, 400, 80),
	}
	want, err := NewExecutor(cl).Run(cold, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// The golden itself is pinned, to a digest recorded when every kernel
	// body became one fused multiply-add per product (KERNELS.md §2, Rule
	// 3): whichever bodies this build binds (avx512; avx2 under -tags
	// noavx512; generic under -tags purego or on another architecture),
	// these are the bits.
	const wantDigest = "1c349c12f295a90c9f2e5079f1542db9fbc45b722e29814eeec18c499d9459cc"
	if got := outputDigest(want); got != wantDigest {
		t.Fatalf("sequential outputs under %s kernels hash to %s, want %s", tensor.ISA(), got, wantDigest)
	}

	// A second Optimize of the identical computation hits the cache and
	// must share the cold plan's lowered IR, not re-derive its own.
	hot, err := o.Optimize(build())
	if err != nil {
		t.Fatal(err)
	}
	if !hot.Cached() {
		t.Fatal("identical computation missed the plan cache")
	}
	coldIR, err := cold.Physical()
	if err != nil {
		t.Fatal(err)
	}
	hotIR, err := hot.Physical()
	if err != nil {
		t.Fatal(err)
	}
	if coldIR != hotIR {
		t.Fatal("cache hit lowered its own physical plan instead of sharing the cached one")
	}

	// The cached plan — lowered once, under no particular engine — must
	// execute bit-identically on the dist runtime at every shard count.
	for _, shards := range []int{1, 2, 7} {
		exec := NewExecutor(cl, WithEngineKind(DistEngine), WithShards(shards))
		got, err := exec.Run(hot, inputs)
		if err != nil {
			t.Fatalf("cached plan on dist @%d shards: %v", shards, err)
		}
		requireBitIdentical(t, "cached plan on dist", got, want)
	}
}

// outputDigest is the SHA-256 of a run's outputs — vertex id, shape and
// value bits, in ascending vertex order.
func outputDigest(outs map[int]*Dense) string {
	ids := make([]int, 0, len(outs))
	for id := range outs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	h := sha256.New()
	var buf [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, id := range ids {
		m := outs[id]
		word(uint64(id))
		word(uint64(m.Rows))
		word(uint64(m.Cols))
		for _, v := range m.Data {
			word(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestPlanExplainAPI pins the public Explain surface: the rendered
// physical plan names every chosen implementation and carries the node
// census header the CLI prints for -explain.
func TestPlanExplainAPI(t *testing.T) {
	b := NewBuilder()
	x := b.Input("X", 200, 300, Single())
	y := b.Input("Y", 300, 100, Single())
	b.MatMul(x, y)
	p, err := NewOptimizer(costmodel.LocalTest(3)).Optimize(b)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Explain()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) == 0 {
		t.Fatal("empty explain output")
	}
	for _, wantSub := range []string{"physical plan:", "scan", "compute", "predicted"} {
		if !strings.Contains(out, wantSub) {
			t.Errorf("Explain output lacks %q:\n%s", wantSub, out)
		}
	}
}
