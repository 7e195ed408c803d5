package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("dist.exchange.bytes", L("kind", "shuffle"))
	c.Add(100)
	c.Inc()
	if c.Value() != 101 {
		t.Errorf("counter = %d, want 101", c.Value())
	}
	// Same identity, labels in any order → same instrument.
	if r.Counter("dist.exchange.bytes", L("kind", "shuffle")) != c {
		t.Error("same identity must return same counter")
	}
	c2 := r.Counter("dist.exchange.bytes", L("kind", "broadcast"))
	if c2 == c {
		t.Error("different labels must return different counter")
	}

	g := r.Gauge("dist.peak_bytes")
	g.Set(50)
	g.SetMax(30)
	if g.Value() != 50 {
		t.Errorf("SetMax lowered gauge to %d", g.Value())
	}
	g.SetMax(70)
	if g.Value() != 70 {
		t.Errorf("SetMax failed to raise gauge: %d", g.Value())
	}

	h := r.Histogram("lat", []float64{1, 10, 100})
	for _, v := range []float64{0.5, 1, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("hist count = %d, want 5", h.Count())
	}
	if h.Sum() != 556.5 {
		t.Errorf("hist sum = %g, want 556.5", h.Sum())
	}
	var m Metric
	for _, s := range r.Snapshot() {
		if s.Name == "lat" {
			m = s
		}
	}
	wantBuckets := []int64{2, 1, 1, 1} // ≤1: {0.5, 1}; ≤10: {5}; ≤100: {50}; overflow: {500}
	for i, want := range wantBuckets {
		if m.Buckets[i].Count != want {
			t.Errorf("bucket %d = %d, want %d (%+v)", i, m.Buckets[i].Count, want, m.Buckets)
		}
	}
	if !math.IsInf(m.Buckets[3].UpperBound, 1) {
		t.Errorf("overflow bucket bound = %v, want +Inf", m.Buckets[3].UpperBound)
	}
}

func TestLabelIdentityIsOrderIndependent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("b", "2"), L("a", "1"))
	b := r.Counter("m", L("a", "1"), L("b", "2"))
	if a != b {
		t.Error("label order must not change identity")
	}
}

func TestSnapshotDeterministicOrder(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz").Inc()
	r.Counter("aaa", L("k", "2")).Inc()
	r.Counter("aaa", L("k", "1")).Inc()
	r.Gauge("mmm").Set(1)
	snap := r.Snapshot()
	var got []string
	for _, m := range snap {
		got = append(got, m.Name+"|"+labelKey(m.Labels))
	}
	want := []string{"aaa|k=1,", "aaa|k=2,", "mmm|", "zzz|"}
	if len(got) != len(want) {
		t.Fatalf("snapshot = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("snapshot[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestRender(t *testing.T) {
	r := NewRegistry()
	r.Counter("dist.retries", L("vertex", "3")).Add(2)
	r.Gauge("dist.peak_bytes").Set(1024)
	r.Histogram("dist.vertex.seconds", []float64{0.1, 1}).Observe(0.05)
	out := r.Render()
	for _, want := range []string{
		"dist.peak_bytes 1024\n",
		"dist.retries{vertex=3} 2\n",
		"dist.vertex.seconds count=1 sum=0.05 le_0.1=1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Render missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines the
// way parallel dist shards do — same identities from every shard — and
// checks the totals. Run under -race (make check gates it).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const shards, perShard = 8, 500
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			for i := 0; i < perShard; i++ {
				r.Counter("dist.exchange.bytes", L("kind", "shuffle")).Add(10)
				r.Counter("dist.exchange.bytes", L("kind", "gather")).Add(1)
				r.Gauge("dist.peak_bytes").SetMax(int64(shard*perShard + i))
				r.Histogram("dist.vertex.seconds", DefaultDurationBuckets()).Observe(0.001)
				if i%100 == 0 {
					r.Snapshot() // readers race against writers
				}
			}
		}(s)
	}
	wg.Wait()
	if v := r.Counter("dist.exchange.bytes", L("kind", "shuffle")).Value(); v != shards*perShard*10 {
		t.Errorf("shuffle bytes = %d, want %d", v, shards*perShard*10)
	}
	if v := r.Counter("dist.exchange.bytes", L("kind", "gather")).Value(); v != shards*perShard {
		t.Errorf("gather bytes = %d, want %d", v, shards*perShard)
	}
	if v := r.Gauge("dist.peak_bytes").Value(); v != (shards-1)*perShard+perShard-1 {
		t.Errorf("peak gauge = %d", v)
	}
	h := r.Histogram("dist.vertex.seconds", DefaultDurationBuckets())
	if h.Count() != shards*perShard {
		t.Errorf("hist count = %d, want %d", h.Count(), shards*perShard)
	}
}

// TestTracerConcurrent races span creation/attrs/End from parallel
// goroutines against Snapshot; run under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer()
	root := tr.Start(nil, "dist.run")
	var wg sync.WaitGroup
	for v := 0; v < 8; v++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := tr.Start(root, "vertex").SetInt("id", int64(v))
				tr.Start(s, "exchange").SetStr("kind", "shuffle").End()
				s.End()
				if i%50 == 0 {
					tr.Snapshot()
				}
			}
		}(v)
	}
	wg.Wait()
	root.End()
	if n := len(tr.Snapshot().Spans); n != 1+8*200*2 {
		t.Errorf("span count = %d, want %d", n, 1+8*200*2)
	}
}
