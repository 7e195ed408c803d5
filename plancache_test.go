package matopt

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"matopt/internal/core"
	"matopt/internal/plan"
)

// motivatingBuilder rebuilds the §2.1 motivating chain; density lets the
// cache-key tests vary one fingerprint component.
func motivatingBuilder(density float64) *Builder {
	b := NewBuilder()
	a := b.SparseInput("A", 100, 10000, density, RowStrips(10))
	m := b.Input("B", 10000, 100, ColStrips(10))
	c := b.Input("C", 100, 1000000, ColStrips(10000))
	b.MatMul(b.MatMul(a, m), c)
	return b
}

func TestPlanCacheHit(t *testing.T) {
	o := NewOptimizer(ClusterR5D(5))
	cold, err := o.Optimize(motivatingBuilder(1))
	if err != nil {
		t.Fatal(err)
	}
	if cold.Cached() {
		t.Fatal("first Optimize reported a cache hit")
	}
	// A fresh Builder with the identical computation must hit.
	hot, err := o.Optimize(motivatingBuilder(1))
	if err != nil {
		t.Fatal(err)
	}
	if !hot.Cached() {
		t.Fatal("identical computation missed the plan cache")
	}
	if cold.Describe() != hot.Describe() {
		t.Errorf("cached plan differs:\n%s\nvs\n%s", cold.Describe(), hot.Describe())
	}
	if cold.PredictedSeconds() != hot.PredictedSeconds() {
		t.Errorf("cached cost %v differs from cold %v", hot.PredictedSeconds(), cold.PredictedSeconds())
	}
	if err := hot.Verify(); err != nil {
		t.Errorf("cached plan does not verify: %v", err)
	}
	if n := o.CachedPlans(); n != 1 {
		t.Errorf("CachedPlans() = %d, want 1", n)
	}
}

// TestPlanCacheKeyedOnDensity: the adaptive executor re-optimizes
// remainder graphs with measured densities, so two computations that
// differ only in a density estimate must not share a cache slot.
func TestPlanCacheKeyedOnDensity(t *testing.T) {
	o := NewOptimizer(ClusterR5D(5))
	if _, err := o.Optimize(motivatingBuilder(1)); err != nil {
		t.Fatal(err)
	}
	p, err := o.Optimize(motivatingBuilder(0.01))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached() {
		t.Fatal("computation with a different density hit the cache")
	}
	if n := o.CachedPlans(); n != 2 {
		t.Errorf("CachedPlans() = %d, want 2", n)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	o := NewOptimizer(ClusterR5D(5), WithPlanCacheSize(1))
	if _, err := o.Optimize(motivatingBuilder(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Optimize(motivatingBuilder(0.5)); err != nil {
		t.Fatal(err) // evicts the density-1 plan
	}
	p, err := o.Optimize(motivatingBuilder(1))
	if err != nil {
		t.Fatal(err)
	}
	if p.Cached() {
		t.Fatal("evicted plan still served from a capacity-1 cache")
	}
	if n := o.CachedPlans(); n != 1 {
		t.Errorf("CachedPlans() = %d, want 1", n)
	}
}

// TestOptionOrderIndependence is the WithFormats/WithModel regression:
// options are recorded first and the environment built once, so the
// model survives regardless of option order.
func TestOptionOrderIndependence(t *testing.T) {
	cl := ClusterR5D(5)
	m := NewOptimizer(cl).Env().Model // any distinct *Model pointer works
	ab := NewOptimizer(cl, WithModel(m), WithFormats(SingleBlockFormats))
	ba := NewOptimizer(cl, WithFormats(SingleBlockFormats), WithModel(m))
	if ab.Env().Model != m || ba.Env().Model != m {
		t.Fatalf("WithModel dropped: order ab kept=%v, order ba kept=%v",
			ab.Env().Model == m, ba.Env().Model == m)
	}
	if len(ab.Env().Formats) != len(ba.Env().Formats) {
		t.Fatalf("format universes differ by option order: %d vs %d",
			len(ab.Env().Formats), len(ba.Env().Formats))
	}
}

func TestOptimizeCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	o := NewOptimizer(ClusterR5D(5))
	if _, err := o.OptimizeCtx(ctx, motivatingBuilder(1)); !errors.Is(err, context.Canceled) {
		t.Fatalf("expected context.Canceled, got %v", err)
	}
}

func TestOptimizeCtxDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	o := NewOptimizer(ClusterR5D(5))
	if _, err := o.OptimizeCtx(ctx, motivatingBuilder(1)); !errors.Is(err, ErrTimeout) {
		t.Fatalf("expected ErrTimeout, got %v", err)
	}
}

// TestLeaderWaiterAndHitShareOnePlan: a plan is lowered where it is
// made, once, and everyone who asks for that computation — the leader
// that searched, a waiter coalesced onto it, a later cache hit — gets
// the same *plan.Plan from Physical(). The leader here is the miss path
// of OptimizeCtx run by hand under the request's own key, so the test
// can hold it at a gate until the waiter is certain to find it in
// flight.
func TestLeaderWaiterAndHitShareOnePlan(t *testing.T) {
	tr := NewTracer()
	o := NewOptimizer(ClusterR5D(5), WithTracer(tr))
	ctx := context.Background()
	g := motivatingBuilder(1).g
	key := fmt.Sprintf("%d|%s", o.algorithm, core.Fingerprint(g, o.env))

	started, gate := make(chan struct{}), make(chan struct{})
	leader := make(chan *plan.Plan, 1)
	go func() {
		pp, _, _ := o.flight.do(ctx, key, func() (*plan.Plan, error) {
			close(started)
			<-gate
			pp, _, err := o.search(ctx, g, nil)
			if err == nil {
				o.cache.Put(key, pp)
			}
			return pp, err
		})
		leader <- pp
	}()
	<-started

	waiter := make(chan *Plan, 1)
	go func() {
		p, err := o.OptimizeCtx(ctx, motivatingBuilder(1))
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		waiter <- p
	}()
	// The waiter has missed the cache once its lookup span has ended;
	// the leader's call slot then stays put until the gate opens.
	for lookedUp := false; !lookedUp; time.Sleep(time.Millisecond) {
		for _, sp := range tr.Snapshot().Spans {
			lookedUp = lookedUp || (sp.Name == "plancache.lookup" && !sp.End.IsZero())
		}
	}
	time.Sleep(10 * time.Millisecond) // let the waiter park on the call
	close(gate)

	want := <-leader
	if want == nil {
		t.Fatal("the leader's search failed")
	}
	wp := <-waiter
	if wp == nil {
		t.FailNow()
	}
	if !wp.Coalesced() || wp.Cached() {
		t.Fatalf("second caller was not a coalesced waiter (cached=%v coalesced=%v)", wp.Cached(), wp.Coalesced())
	}
	hit, err := o.OptimizeCtx(ctx, motivatingBuilder(1))
	if err != nil {
		t.Fatal(err)
	}
	if !hit.Cached() {
		t.Fatal("third caller missed the cache the leader filled")
	}
	for role, p := range map[string]*Plan{"waiter": wp, "cache hit": hit} {
		if pp, err := p.Physical(); err != nil || pp != want {
			t.Errorf("%s holds physical plan %p (err %v), the leader lowered %p", role, pp, err, want)
		}
		if p.Fingerprint() == "" || p.Fingerprint() != core.Fingerprint(g, o.env) {
			t.Errorf("%s reports fingerprint %q", role, p.Fingerprint())
		}
	}
}
